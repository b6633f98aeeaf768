// Events: the "actions" of the paper at CFG granularity.
//
// Each CFG node is one primitive evaluation event. The paper's notion of
// action (Section 3.3) maps onto event kinds as follows:
//   R(v)   -> Read            (also LL / VL, which are global reads)
//   W(v)   -> Write           (also the write half of SC / CAS)
//   acq(v) -> Acquire
//   rel(v) -> Release
// plus structural pseudo-events (Entry, Exit, LoopHead, Join) that perform
// no action and are ignored by the mover analysis.
//
// Reads and writes carry an AccessPath describing the accessed location
// (root variable plus field/index selectors); whether an access is a local
// or global action is decided later by the escape/uniqueness analyses, not
// here.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>

#include "synat/synl/ast.h"

namespace synat::cfg {

using synl::ExprId;
using synl::ProcId;
using synl::Program;
using synl::StmtId;
using synl::VarId;

struct EventId {
  uint32_t idx = UINT32_MAX;
  constexpr EventId() = default;
  constexpr explicit EventId(uint32_t i) : idx(i) {}
  constexpr bool valid() const { return idx != UINT32_MAX; }
  friend constexpr bool operator==(EventId, EventId) = default;
  friend constexpr auto operator<=>(EventId, EventId) = default;
};

/// One selector step of an access path.
struct Selector {
  enum Kind : uint8_t { Field, Index } kind = Field;
  synat::Symbol field;  ///< valid iff kind == Field

  friend bool operator==(const Selector&, const Selector&) = default;
};

/// The selectors of an access path: up to kInline of them are stored in
/// the list itself, and a longer list moves to the heap. Every path of the
/// corpus, examples/synl and perfbench's generator has at most two
/// selectors, so an event, lock-set entry, region or local block owns no
/// heap memory for its path.
class SelectorList {
 public:
  static constexpr uint32_t kInline = 2;

  SelectorList() = default;
  SelectorList(const SelectorList& other) { *this = other; }
  SelectorList(SelectorList&& other) noexcept { *this = std::move(other); }
  SelectorList& operator=(const SelectorList& other) {
    if (this == &other) return *this;
    if (other.size_ > cap_) spill_to(other.size_);
    std::copy(other.begin(), other.end(), data());
    size_ = other.size_;
    return *this;
  }
  SelectorList& operator=(SelectorList&& other) noexcept {
    if (this == &other) return *this;
    if (!other.spilled()) return *this = other;  // fits: no allocation
    if (spilled()) delete[] heap_;
    heap_ = other.heap_;
    cap_ = other.cap_;
    size_ = other.size_;
    other.cap_ = kInline;
    other.size_ = 0;
    return *this;
  }
  ~SelectorList() {
    if (spilled()) delete[] heap_;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const Selector& operator[](size_t i) const { return data()[i]; }
  const Selector& back() const { return data()[size_ - 1]; }
  const Selector* begin() const { return data(); }
  const Selector* end() const { return data() + size_; }
  Selector* begin() { return data(); }
  Selector* end() { return data() + size_; }
  void push_back(const Selector& s) {
    if (size_ == cap_) spill_to(2 * cap_);
    data()[size_++] = s;
  }

  friend bool operator==(const SelectorList& a, const SelectorList& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  bool spilled() const { return cap_ > kInline; }
  /// Moves the selectors to a heap array of `cap` slots.
  void spill_to(uint32_t cap);
  const Selector* data() const { return spilled() ? heap_ : inline_; }
  Selector* data() { return spilled() ? heap_ : inline_; }

  uint32_t size_ = 0;
  uint32_t cap_ = kInline;  ///< above kInline: the selectors are in heap_
  union {
    Selector inline_[kInline] = {};
    Selector* heap_;
  };
};

/// The location accessed by a read/write/LL/SC/VL/CAS event:
/// root variable followed by zero or more .field / [*] selectors.
/// Array indices are abstracted to [*]; the alias analysis treats all
/// indices of the same array as potentially equal.
struct AccessPath {
  VarId root;
  SelectorList sels;

  bool is_plain_var() const { return sels.empty(); }
  /// The final selector's field, or the invalid symbol for plain vars /
  /// index accesses.
  synat::Symbol last_field() const {
    if (sels.empty() || sels.back().kind != Selector::Field) return {};
    return sels.back().field;
  }
  friend bool operator==(const AccessPath&, const AccessPath&) = default;

  std::string str(const Program& prog) const;
};

enum class EventKind : uint8_t {
  // Structural pseudo-events.
  Entry,     ///< procedure entry
  Exit,      ///< procedure exit (all returns & fallthrough converge here)
  LoopHead,  ///< top of a loop (stmt = the Loop)
  Join,      ///< merge point after an if
  // Actions.
  Read,     ///< read of path
  Write,    ///< write of path
  LL,       ///< LL(path); a global read that also sets the link
  VL,       ///< VL(path); a global read of the link state
  SC,       ///< SC(path, v); write if successful
  CAS,      ///< CAS(path, e, n); read + conditional write
  New,      ///< object allocation
  Acquire,  ///< lock acquire (synchronized entry); path = lock expr root
  Release,  ///< lock release (synchronized exit)
  Assume,   ///< TRUE(e) constraint; no memory action itself (its reads are
            ///< separate events), used by local-condition inference
};

std::string_view to_string(EventKind k);

constexpr bool is_action(EventKind k) {
  return k >= EventKind::Read && k <= EventKind::Release;
}

/// Kind of CFG edge; branch edges record which way an `if` went so path
/// analyses can collect branch constraints.
enum class EdgeKind : uint8_t { Fall, True, False, Back };

struct Edge {
  EventId to;
  EdgeKind kind = EdgeKind::Fall;
};

struct Event {
  EventKind kind = EventKind::Join;
  StmtId stmt;   ///< statement that generated this event
  ExprId expr;   ///< expression for Read/Write/LL/SC/VL/CAS/New/Assume;
                 ///< for Write from an Assign this is the LHS location
  AccessPath path;  ///< for Read/Write/LL/SC/VL/CAS and lock Acquire/Release
  bool must_succeed = false;  ///< SC/CAS lexically inside a TRUE(...)
  bool is_base = false;  ///< Read performed only to compute an address
                         ///< (the base pointer of a field/array access)
  StmtId loop;   ///< innermost enclosing Loop statement, if any

  bool is_action() const { return cfg::is_action(kind); }
};

}  // namespace synat::cfg

template <>
struct std::hash<synat::cfg::EventId> {
  size_t operator()(synat::cfg::EventId id) const noexcept {
    return std::hash<uint32_t>{}(id.idx);
  }
};
