// Shared syntactic helpers over SYNL expressions used by the escape,
// uniqueness and local-condition analyses.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
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

  bool operator==(const AliasKey&) const = default;
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
///
/// add() only records each item's key; finish() lays the items out by
/// bucket in a few flat arrays, and queries read that layout, so call it
/// once after the last add and before the first query.
class AliasIndex {
 public:
  /// Room for `items` adds without growing.
  void reserve(size_t items);
  /// Appends item number size().
  void add(const Program& prog, const AccessPath& path);
  /// Groups the added items by bucket, and the field items by field alone
  /// (what an indefinite holder reads).
  void finish();
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
    List a, b;
    if (k.kind == AliasKey::Field && k.holder == AliasKey::kIndefinite) {
      a = by_field_.find(k.id);
    } else {
      a = by_key_.find(k);
      if (k.kind == AliasKey::Field)
        b = by_key_.find({AliasKey::Field, k.id, AliasKey::kIndefinite});
    }
    merge(a, b, by_key_.find(AliasKey{}), fn);
  }

 private:
  using List = std::span<const uint32_t>;

  /// Items grouped by a key: bucket `b` of `keys[b]` lists items[begin[b],
  /// begin[b + 1]), ascending. `slots` finds a key's bucket in constant
  /// time: an open-addressing table of bucket + 1 (0 is empty) whose size
  /// is a power of two, at least twice the number of items.
  template <class Key>
  struct Buckets {
    std::vector<Key> keys;  ///< in the order their first items were added
    std::vector<uint32_t> begin;
    std::vector<uint32_t> items;
    std::vector<uint32_t> slots;

    /// The slot that holds `k`, or the empty slot where it would go.
    size_t probe(const Key& k) const {
      const size_t mask = slots.size() - 1;
      size_t s = slot_of(k) & mask;
      while (slots[s] != 0 && keys[slots[s] - 1] != k) s = (s + 1) & mask;
      return s;
    }
    List find(const Key& k) const {
      if (slots.empty()) return {};
      const uint32_t b = slots[probe(k)];
      if (b == 0) return {};
      return List(items).subspan(begin[b - 1], begin[b] - begin[b - 1]);
    }
  };

  /// Lays out `out` from the added items whose `key_of` is set.
  template <class Key, class KeyOf>
  void lay_out(KeyOf key_of, Buckets<Key>& out) const;
  /// Where a key's probe sequence starts (Fibonacci hashing).
  static size_t slot_of(const AliasKey& k) {
    return slot_of((static_cast<uint64_t>(k.kind) << 62) ^
                   (static_cast<uint64_t>(k.id) << 32) ^ k.holder);
  }
  static size_t slot_of(uint64_t k) {
    return static_cast<size_t>((k * 0x9E3779B97F4A7C15ull) >> 32);
  }

  /// Visits the union of three ascending, disjoint lists in order.
  template <class Fn>
  static void merge(List x, List y, List z, Fn& fn) {
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
  std::vector<AliasKey> added_;  ///< item -> its bucket, until finish()
  Buckets<AliasKey> by_key_;     ///< every bucket, the wildcard's included
  Buckets<uint32_t> by_field_;   ///< field items by field, any holder
};

/// Sets `out` to the successor events of an SC/CAS event `e` that are
/// reached only when the primitive SUCCEEDS. TRUE(SC(...)) succeeds by
/// construction; for `if (SC(...)) ...` (possibly negated) only the success
/// branch is given; any other shape conservatively gives all successors.
void post_success_edges(const Program& prog, const cfg::Cfg& cfg,
                        cfg::EventId e, std::vector<cfg::EventId>& out);

}  // namespace synat::analysis
