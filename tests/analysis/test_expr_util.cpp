#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unordered_set>

#include "gen.h"
#include "synat/analysis/expr_util.h"
#include "synat/atomicity/infer.h"
#include "synat/corpus/corpus.h"
#include "synat/synl/parser.h"

namespace synat::analysis {
namespace {

using synl::Program;

struct Fixture {
  DiagEngine diags;
  Program prog;

  explicit Fixture(std::string_view src)
      : prog(synl::parse_and_check(src, diags)) {
    EXPECT_FALSE(diags.has_errors()) << diags.dump();
  }

  synl::VarId var(std::string_view name) const {
    Symbol s = prog.syms().lookup(name);
    for (size_t i = 0; i < prog.num_vars(); ++i) {
      synl::VarId v(static_cast<uint32_t>(i));
      if (prog.var(v).name == s) return v;
    }
    return {};
  }

  /// The RHS expression of the first assignment in procedure F.
  synl::ExprId first_rhs() const {
    synl::ExprId out;
    synl::for_each_stmt(prog, prog.proc(prog.find_proc("F")).body,
                        [&](synl::StmtId sid) {
                          const synl::Stmt& s = prog.stmt(sid);
                          if (s.kind == synl::StmtKind::Assign && !out.valid())
                            out = s.e2;
                        });
    return out;
  }

  AccessPath path(std::string_view root, std::string_view field = {}) const {
    AccessPath p;
    p.root = var(root);
    if (!field.empty())
      p.sels.push_back({cfg::Selector::Field, prog.syms().lookup(field)});
    return p;
  }
};

TEST(MentionsAsValue, DirectReference) {
  Fixture f(R"(
    class Node { int v; }
    global Node G;
    proc F() {
      local n := new Node in {
        G := n;
      }
    }
  )");
  EXPECT_TRUE(mentions_as_value(f.prog, f.first_rhs(), f.var("n")));
}

TEST(MentionsAsValue, BasePointerDoesNotCount) {
  Fixture f(R"(
    class Node { int v; }
    global int G;
    proc F() {
      local n := new Node in {
        G := n.v;
      }
    }
  )");
  // Reading n.v dereferences n but does not let the reference escape.
  EXPECT_FALSE(mentions_as_value(f.prog, f.first_rhs(), f.var("n")));
}

TEST(MentionsAsValue, ComparisonDoesNotCount) {
  Fixture f(R"(
    class Node { int v; }
    global bool G;
    proc F() {
      local n := new Node in {
        G := n == null;
      }
    }
  )");
  EXPECT_FALSE(mentions_as_value(f.prog, f.first_rhs(), f.var("n")));
}

TEST(MayAlias, PlainVariables) {
  Fixture f("global int A; global int B; proc F() { A := B; }");
  EXPECT_TRUE(may_alias(f.prog, f.path("A"), f.path("A")));
  EXPECT_FALSE(may_alias(f.prog, f.path("A"), f.path("B")));
}

TEST(MayAlias, SameClassSameField) {
  Fixture f(R"(
    class Node { int v; Node next; }
    proc F(Node a, Node b) { a.v := b.v; }
  )");
  EXPECT_TRUE(may_alias(f.prog, f.path("a", "v"), f.path("b", "v")));
  EXPECT_FALSE(may_alias(f.prog, f.path("a", "v"), f.path("b", "next")));
}

TEST(MayAlias, DifferentClassesSameFieldName) {
  Fixture f(R"(
    class A { int v; }
    class B { int v; }
    proc F(A a, B b) { a.v := b.v; }
  )");
  EXPECT_FALSE(may_alias(f.prog, f.path("a", "v"), f.path("b", "v")));
}

TEST(MayAlias, VariableNeverAliasesHeap) {
  Fixture f(R"(
    class Node { Node Next; }
    global Node Tail;
    proc F(Node t) { Tail := t.Next; }
  )");
  EXPECT_FALSE(may_alias(f.prog, f.path("Tail"), f.path("t", "Next")));
}

TEST(MayAlias, ArrayElements) {
  Fixture f(R"(
    class Obj { int[] data; int[] version; }
    proc F(Obj a, Obj b) { a.data[0] := b.data[1]; }
  )");
  AccessPath ad = f.path("a", "data");
  ad.sels.push_back({cfg::Selector::Index, {}});
  AccessPath bd = f.path("b", "data");
  bd.sels.push_back({cfg::Selector::Index, {}});
  // Same element type: may alias (indices are abstracted).
  EXPECT_TRUE(may_alias(f.prog, ad, bd));
  // Field access never aliases an element access.
  EXPECT_FALSE(may_alias(f.prog, ad, f.path("a", "data")));
}

TEST(PathTypes, WalksSelectors) {
  Fixture f(R"(
    class Node { int v; Node next; }
    proc F(Node a) { a.v := 0; }
  )");
  AccessPath av = f.path("a", "v");
  synl::TypeId holder = path_prefix_type(f.prog, av);
  ASSERT_TRUE(holder.valid());
  EXPECT_EQ(f.prog.type(holder).kind, synl::TypeKind::Ref);
  synl::TypeId leaf = path_type(f.prog, av);
  ASSERT_TRUE(leaf.valid());
  EXPECT_EQ(f.prog.type(leaf).kind, synl::TypeKind::Int);
}

TEST(ReadsExactly, MatchesLocationAndLL) {
  Fixture f(R"(
    global int X;
    global int Y;
    proc F() {
      local a := X in {
        local b := LL(X) in { skip; }
      }
    }
  )");
  AccessPath x = f.path("X");
  AccessPath y = f.path("Y");
  // Find the two initializer expressions.
  std::vector<synl::ExprId> inits;
  synl::for_each_stmt(f.prog, f.prog.proc(f.prog.find_proc("F")).body,
                      [&](synl::StmtId sid) {
                        if (f.prog.stmt(sid).kind == synl::StmtKind::Local)
                          inits.push_back(f.prog.stmt(sid).e1);
                      });
  ASSERT_EQ(inits.size(), 2u);
  EXPECT_TRUE(reads_exactly(f.prog, inits[0], x));
  EXPECT_TRUE(reads_exactly(f.prog, inits[1], x));  // LL(X) counts
  EXPECT_FALSE(reads_exactly(f.prog, inits[0], y));
}

// --- alias index -------------------------------------------------------------
//
// The conflict analysis (infer.cpp) reads step 2/4 candidates and Theorem
// 5.5 blocks from AliasIndex buckets instead of scanning every action. Its
// output stays byte-identical only if no aliasing location is ever left out
// of a query: may_alias(a, b) must imply that a query for a reads b's
// bucket, so the index hands b out.

/// The items the index hands to a query for `path`, checking their order.
std::vector<bool> handed_out(const Program& prog, const AliasIndex& index,
                             const AccessPath& path) {
  std::vector<bool> handed(index.size());
  int64_t last = -1;
  index.for_each_candidate(prog, path, [&](uint32_t b) {
    EXPECT_GT(static_cast<int64_t>(b), last) << "candidates out of order";
    last = b;
    handed[b] = true;
    return true;
  });
  return handed;
}

/// Checks the contract over every pair of `paths`, which the index holds in
/// the given order.
void expect_index_contract(const Program& prog,
                           const std::vector<AccessPath>& paths,
                           const std::string& where) {
  AliasIndex index;
  for (const AccessPath& p : paths) index.add(prog, p);
  index.finish();
  ASSERT_EQ(index.size(), paths.size());
  for (size_t a = 0; a < paths.size(); ++a) {
    std::vector<bool> handed = handed_out(prog, index, paths[a]);
    for (size_t b = 0; b < paths.size(); ++b) {
      if (!may_alias(prog, paths[a], paths[b])) continue;
      EXPECT_TRUE(handed[b]) << where << ": " << paths[a].str(prog) << " ~ "
                             << paths[b].str(prog) << " not handed out";
    }
  }
}

/// Every distinct location the conflict analysis indexes or queries in
/// `src`: the paths of every variant's actions (global actions and window
/// regions among them) and every local block's shared variable (the
/// Theorem 5.5 regions).
void check_program(const std::string& where, const std::string& src) {
  DiagEngine diags;
  synl::FrontEnd fe = synl::parse_and_recover(src, diags);
  ASSERT_FALSE(diags.has_errors()) << where << "\n" << diags.dump();
  Program& prog = fe.prog;
  atomicity::AtomicityResult r = atomicity::infer_atomicity(prog, diags);
  std::vector<AccessPath> paths;
  std::unordered_set<std::string> seen;
  auto add = [&](const AccessPath& p) {
    std::string key = std::to_string(p.root.idx);
    for (const cfg::Selector& s : p.sels)
      key += s.kind == cfg::Selector::Field ? "." + std::to_string(s.field.id())
                                             : std::string("[]");
    if (seen.insert(key).second) paths.push_back(p);
  };
  for (const atomicity::ProcResult& pr : r.procs()) {
    for (const atomicity::VariantResult& vr : pr.variants) {
      const cfg::Cfg& cfg = vr.pa->cfg();
      for (uint32_t i = 0; i < cfg.num_nodes(); ++i) {
        const cfg::Event& ev = cfg.node(cfg::EventId(i));
        if (ev.is_action()) add(ev.path);
      }
      for (const LocalBlock& b : vr.pa->localcond().blocks()) add(b.svar);
    }
  }
  ASSERT_FALSE(paths.empty()) << where;
  expect_index_contract(prog, paths, where);
}

TEST(AliasIndex, CandidatesCoverMayAliasOnEveryCorpusProgram) {
  for (const corpus::Entry& e : corpus::all())
    check_program(std::string(e.name), std::string(e.source));
}

TEST(AliasIndex, CandidatesCoverMayAliasOnEveryExample) {
  std::vector<std::filesystem::path> files;
  for (const auto& f : std::filesystem::directory_iterator(SYNAT_EXAMPLES_DIR))
    if (f.path().extension() == ".synl") files.push_back(f.path());
  ASSERT_FALSE(files.empty());
  std::sort(files.begin(), files.end());
  for (const std::filesystem::path& f : files) {
    std::ifstream in(f);
    std::stringstream ss;
    ss << in.rdbuf();
    check_program(f.filename().string(), ss.str());
  }
}

TEST(AliasIndex, CandidatesCoverMayAliasOnGeneratedPrograms) {
  for (perfbench::AliasMode mode :
       {perfbench::AliasMode::Disjoint, perfbench::AliasMode::Shared}) {
    perfbench::GenOptions o;
    o.procs = 80;
    o.seed = 1;
    o.mode = mode;
    check_program(mode == perfbench::AliasMode::Shared ? "gen shared"
                                                        : "gen disjoint",
                  perfbench::GenProgram(o).render());
  }
}

TEST(AliasIndex, WildcardAndIndefiniteHoldersReachEveryField) {
  Fixture f(R"(
    class A { int v; }
    class B { int v; }
    global int I;
    proc F(A a, B b) { a.v := b.v; }
  )");
  AccessPath unknown;  // invalid root: aliases everything
  unknown.sels.push_back({cfg::Selector::Field, f.prog.syms().lookup("v")});
  AccessPath int_holder = f.path("I", "v");  // holder is not a class
  // a.I.v: A has no field I, so the holder's type is unknown and the
  // location may alias the v of every class.
  AccessPath untyped = f.path("a", "I");
  untyped.sels.push_back({cfg::Selector::Field, f.prog.syms().lookup("v")});
  AccessPath elem = f.path("a", "v");
  elem.sels.push_back({cfg::Selector::Index, {}});
  std::vector<AccessPath> paths = {f.path("a", "v"), f.path("b", "v"),
                                   int_holder,       untyped,
                                   unknown,          f.path("I"),
                                   elem};
  EXPECT_EQ(alias_key(f.prog, int_holder).holder, AliasKey::kIndefinite);
  EXPECT_EQ(alias_key(f.prog, untyped).holder, AliasKey::kIndefinite);
  EXPECT_EQ(alias_key(f.prog, unknown).kind, AliasKey::Any);
  EXPECT_TRUE(may_alias(f.prog, untyped, paths[0]));
  EXPECT_TRUE(may_alias(f.prog, untyped, paths[1]));
  expect_index_contract(f.prog, paths, "fixture");
  // Holder classes separate a.v from b.v: a's query skips b's bucket.
  AliasIndex index;
  for (const AccessPath& p : paths) index.add(f.prog, p);
  index.finish();
  std::vector<bool> handed = handed_out(f.prog, index, paths[0]);
  EXPECT_FALSE(handed[1]);
  EXPECT_TRUE(handed[2] && handed[3] && handed[4]);  // indefinite, wildcard
}

}  // namespace
}  // namespace synat::analysis
