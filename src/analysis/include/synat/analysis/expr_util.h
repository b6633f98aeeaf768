// Shared syntactic helpers over SYNL expressions used by the escape,
// uniqueness and local-condition analyses.
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "synat/cfg/cfg.h"
#include "synat/synl/ast.h"

namespace synat::analysis {

using cfg::AccessPath;
using synl::ExprId;
using synl::Program;
using synl::VarId;

/// True if `root` mentions variable `v` as a *value* — i.e. a VarRef(v)
/// occurs somewhere other than the base-pointer position of a field/array
/// access or of a non-blocking primitive's target location. `x := v` and
/// `SC(g, v)` mention v as a value; `v.fd := 0` and `SC(v.fd, e)` do not.
bool mentions_as_value(const Program& prog, ExprId root, VarId v);

/// True if the expression is exactly a read of `path`: a Location expression
/// (or LL of one) whose AccessPath equals `path`.
bool reads_exactly(const Program& prog, ExprId e, const AccessPath& path);

/// AccessPath of a Location expression (empty-rooted if not a location).
AccessPath path_of_expr(const Program& prog, ExprId e);

/// Static type of the object holding the location's final selector: the
/// type reached from the root variable's type through all but the last
/// selector. Returns the invalid TypeId when it cannot be computed.
synl::TypeId path_prefix_type(const Program& prog, const AccessPath& path);

/// Static type of the location itself (through all selectors).
synl::TypeId path_type(const Program& prog, const AccessPath& path);

/// True if the two locations may refer to the same memory cell, using the
/// paper's alias rule (Section 5.4): plain variables alias only themselves;
/// field accesses may alias iff they access the same field of the same
/// class; array elements may alias iff the arrays have the same element
/// type. Unknown types are treated conservatively (may alias when the
/// selector skeletons agree).
bool may_alias(const Program& prog, const AccessPath& a, const AccessPath& b);

/// The alias bucket of a location: the part of it `may_alias` compares.
struct AliasKey {
  enum Kind : uint8_t {
    Any,    ///< invalid root: may alias everything
    Var,    ///< plain variable; `id` is its VarId
    Field,  ///< last selector is field `id` (a Symbol) of class `holder`
    Elem,   ///< last selector is an array element
  };
  /// `holder` of a field whose holding object has no definite class.
  static constexpr uint32_t kIndefinite = UINT32_MAX;

  Kind kind = Any;
  uint32_t id = 0;
  uint32_t holder = kIndefinite;
};

AliasKey alias_key(const Program& prog, const AccessPath& path);

/// Alias candidates over a fixed list of locations. Items are numbered in
/// insertion order; a query visits, in ascending order and without
/// allocating, every item whose bucket the query's key reads: the wildcard
/// bucket always, everything for a wildcard query, the same variable, any
/// array element, and the same field with equal holders (an indefinite
/// holder on either side matches every holder). The contract is that
/// may_alias(a, b) implies a query for a visits b, so callers still filter
/// with may_alias, and a scan over the candidates sees the aliasing items
/// in the same order as a scan over every item.
class AliasIndex {
 public:
  /// Appends item number size().
  void add(const Program& prog, const AccessPath& path);
  size_t size() const { return size_; }

  /// Calls fn(item) for every candidate of `path`, in ascending order,
  /// until fn returns false.
  template <class Fn>
  void for_each_candidate(const Program& prog, const AccessPath& path,
                          Fn&& fn) const {
    const AliasKey k = alias_key(prog, path);
    if (k.kind == AliasKey::Any) {
      for (uint32_t i = 0; i < size_; ++i)
        if (!fn(i)) return;
      return;
    }
    const List* a = nullptr;
    const List* b = nullptr;
    switch (k.kind) {
      case AliasKey::Var:
        a = find(vars_, k.id);
        break;
      case AliasKey::Elem:
        a = &elems_;
        break;
      case AliasKey::Field:
        if (k.holder == AliasKey::kIndefinite) {
          a = find(field_all_, k.id);
        } else {
          a = find(fields_, pack(k.id, k.holder));
          b = find(fields_, pack(k.id, AliasKey::kIndefinite));
        }
        break;
      case AliasKey::Any:
        break;
    }
    merge(a, b, &any_, fn);
  }

 private:
  using List = std::vector<uint32_t>;

  static uint64_t pack(uint32_t field, uint32_t holder) {
    return (static_cast<uint64_t>(field) << 32) | holder;
  }
  template <class Map, class Key>
  static const List* find(const Map& m, Key key) {
    auto it = m.find(key);
    return it == m.end() ? nullptr : &it->second;
  }
  /// Visits the union of three ascending, disjoint lists in order.
  template <class Fn>
  static void merge(const List* a, const List* b, const List* c, Fn& fn) {
    static const List kNone;
    const List& x = a != nullptr ? *a : kNone;
    const List& y = b != nullptr ? *b : kNone;
    const List& z = c != nullptr ? *c : kNone;
    if (y.empty() && z.empty()) {
      for (uint32_t item : x)
        if (!fn(item)) return;
      return;
    }
    constexpr uint32_t kEnd = UINT32_MAX;
    size_t i = 0, j = 0, k = 0;
    while (true) {
      const uint32_t u = i < x.size() ? x[i] : kEnd;
      const uint32_t v = j < y.size() ? y[j] : kEnd;
      const uint32_t w = k < z.size() ? z[k] : kEnd;
      const uint32_t next = std::min({u, v, w});
      if (next == kEnd) return;
      if (next == u) ++i;
      else if (next == v) ++j;
      else ++k;
      if (!fn(next)) return;
    }
  }

  uint32_t size_ = 0;
  List any_;
  List elems_;
  std::unordered_map<uint32_t, List> vars_;        ///< by VarId
  std::unordered_map<uint64_t, List> fields_;      ///< by (field, holder)
  std::unordered_map<uint32_t, List> field_all_;   ///< by field, any holder
};

/// Sets `out` to the successor events of an SC/CAS event `e` that are
/// reached only when the primitive SUCCEEDS. TRUE(SC(...)) succeeds by
/// construction; for `if (SC(...)) ...` (possibly negated) only the success
/// branch is given; any other shape conservatively gives all successors.
void post_success_edges(const Program& prog, const cfg::Cfg& cfg,
                        cfg::EventId e, std::vector<cfg::EventId>& out);

}  // namespace synat::analysis
