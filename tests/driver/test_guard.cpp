// Unit tests for the execution-guard substrate: ExecBudget cancellation
// points and its deadline (DESIGN.md §3c).
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "synat/support/budget.h"

namespace synat::driver {
namespace {

TEST(ExecBudget, HealthyCheckIsANoOp) {
  ExecBudget budget;
  for (int i = 0; i < 10000; ++i) budget.check("loop");
  EXPECT_FALSE(budget.cancelled());
}

TEST(ExecBudget, CancelTripsNextCheck) {
  ExecBudget budget;
  budget.cancel("deadline");
  EXPECT_TRUE(budget.cancelled());
  try {
    budget.check("mover classification");
    FAIL() << "check() did not throw";
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(e.reason(), "deadline");
    EXPECT_NE(std::string(e.what()).find("mover classification"),
              std::string::npos);
  }
}

TEST(ExecBudget, FirstCancelReasonWins) {
  ExecBudget budget;
  budget.cancel("deadline");
  budget.cancel("other");
  try {
    budget.check("x");
    FAIL() << "check() did not throw";
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(e.reason(), "deadline");
  }
}

// The budget's own clock is the one deadline path: with a deadline armed,
// every check reads the clock, so the first check after the deadline
// throws however few checks came before it. (The deadline leaves the first
// check room on a loaded machine.)
TEST(ExecBudget, DeadlineTripsAtTheFirstCheckAfterItPasses) {
  ExecBudget budget;
  budget.arm_deadline_ms(50);
  budget.check("variant expansion");
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  try {
    budget.check("mover classification");
    FAIL() << "check() did not throw";
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(e.reason(), "deadline");
    EXPECT_NE(std::string(e.what()).find("mover classification"),
              std::string::npos);
  }
  EXPECT_TRUE(budget.cancelled());
}

}  // namespace
}  // namespace synat::driver
