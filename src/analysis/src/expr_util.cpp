#include "synat/analysis/expr_util.h"

#include <algorithm>
#include <optional>

#include "synat/cfg/cfg.h"

namespace synat::analysis {

using synl::Expr;
using synl::ExprKind;
using synl::TypeId;
using synl::TypeKind;

namespace {

/// Walks `e`; `as_value` says whether this position is a value position.
bool mentions(const Program& prog, ExprId id, VarId v, bool as_value) {
  if (!id.valid()) return false;
  const Expr& e = prog.expr(id);
  switch (e.kind) {
    case ExprKind::IntLit:
    case ExprKind::BoolLit:
    case ExprKind::NullLit:
    case ExprKind::New:
      return false;
    case ExprKind::VarRef:
      return as_value && e.var == v;
    case ExprKind::Field:
      // Reading a.fd uses `a` only as a base pointer; the *field value*
      // flows, not the pointer itself.
      return mentions(prog, e.a, v, /*as_value=*/false);
    case ExprKind::Index:
      return mentions(prog, e.a, v, false) || mentions(prog, e.b, v, true);
    case ExprKind::Unary:
      return mentions(prog, e.a, v, as_value);
    case ExprKind::Binary:
      // Comparisons and arithmetic never let a reference escape, but a
      // reference compared is still only inspected, not stored; treat both
      // operands as non-escaping value positions for refs. We keep it
      // conservative for non-comparison operators (no refs flow there in
      // well-typed code anyway).
      if (e.bin_op == synl::BinOp::Eq || e.bin_op == synl::BinOp::Ne) {
        return mentions(prog, e.a, v, false) || mentions(prog, e.b, v, false);
      }
      return mentions(prog, e.a, v, true) || mentions(prog, e.b, v, true);
    case ExprKind::LL:
    case ExprKind::VL:
      return mentions(prog, e.a, v, false);
    case ExprKind::SC:
      return mentions(prog, e.a, v, false) || mentions(prog, e.b, v, true);
    case ExprKind::CAS:
      return mentions(prog, e.a, v, false) || mentions(prog, e.b, v, true) ||
             mentions(prog, e.c, v, true);
    case ExprKind::Call:
      // Conservative: a call could do anything with its arguments.
      for (ExprId arg : prog.args(e)) {
        if (mentions(prog, arg, v, true)) return true;
      }
      return false;
  }
  return false;
}

}  // namespace

bool mentions_as_value(const Program& prog, ExprId root, VarId v) {
  return mentions(prog, root, v, /*as_value=*/true);
}

AccessPath path_of_expr(const Program& prog, ExprId id) {
  AccessPath path;
  ExprId cur = id;
  while (cur.valid()) {
    const Expr& e = prog.expr(cur);
    if (e.kind == ExprKind::VarRef) {
      path.root = e.var;
      break;
    }
    if (e.kind == ExprKind::Field) {
      path.sels.push_back({cfg::Selector::Field, e.name});
      cur = e.a;
    } else if (e.kind == ExprKind::Index) {
      path.sels.push_back({cfg::Selector::Index, {}});
      cur = e.a;
    } else {
      break;
    }
  }
  // Collected from the outermost selector inward.
  std::reverse(path.sels.begin(), path.sels.end());
  return path;
}

bool reads_exactly(const Program& prog, ExprId id, const AccessPath& path) {
  const Expr& e = prog.expr(id);
  ExprId loc = id;
  if (e.kind == ExprKind::LL) loc = e.a;
  if (!synl::is_location_kind(prog.expr(loc).kind)) return false;
  return path_of_expr(prog, loc) == path;
}

namespace {

TypeId walk_type(const Program& prog, const AccessPath& path, size_t nsels) {
  if (!path.root.valid()) return TypeId();
  TypeId t = prog.var(path.root).type;
  for (size_t i = 0; i < nsels; ++i) {
    if (!t.valid()) return TypeId();
    const synl::TypeNode& node = prog.type(t);
    const cfg::Selector& sel = path.sels[i];
    if (sel.kind == cfg::Selector::Field) {
      if (node.kind != TypeKind::Ref) return TypeId();
      const synl::ClassInfo& c = prog.cls(node.cls);
      int idx = c.field_index(sel.field);
      if (idx < 0) return TypeId();
      t = c.fields[static_cast<size_t>(idx)].type;
    } else {
      if (node.kind != TypeKind::Array) return TypeId();
      t = node.elem;
    }
  }
  return t;
}

bool types_definitely_differ(const Program& prog, TypeId a, TypeId b) {
  if (!a.valid() || !b.valid()) return false;
  const synl::TypeNode& ta = prog.type(a);
  const synl::TypeNode& tb = prog.type(b);
  if (ta.kind == TypeKind::Unknown || tb.kind == TypeKind::Unknown) return false;
  if (ta.kind != tb.kind) return true;
  if (ta.kind == TypeKind::Ref) return ta.cls != tb.cls;
  if (ta.kind == TypeKind::Array)
    return types_definitely_differ(prog, ta.elem, tb.elem);
  return false;
}

}  // namespace

TypeId path_prefix_type(const Program& prog, const AccessPath& path) {
  if (path.sels.empty()) return TypeId();
  return walk_type(prog, path, path.sels.size() - 1);
}

TypeId path_type(const Program& prog, const AccessPath& path) {
  return walk_type(prog, path, path.sels.size());
}

void post_success_edges(const Program& prog, const cfg::Cfg& cfg,
                        cfg::EventId e, std::vector<cfg::EventId>& out) {
  out.clear();
  const cfg::Event& ev = cfg.node(e);
  auto all_succs = [&] {
    for (const cfg::Edge& s : cfg.succs(e)) out.push_back(s.to);
  };
  if (ev.must_succeed) return all_succs();

  // `if (SC(...)) ...` — find the branch node deciding on this primitive
  // and follow only the success edge.
  if (!ev.stmt.valid() || prog.stmt(ev.stmt).kind != synl::StmtKind::If)
    return all_succs();
  ExprId cond = prog.stmt(ev.stmt).e1;
  bool negated = false;
  while (cond.valid() && prog.expr(cond).kind == ExprKind::Unary &&
         prog.expr(cond).un_op == synl::UnOp::Not) {
    negated = !negated;
    cond = prog.expr(cond).a;
  }
  if (cond != ev.expr) return all_succs();
  // Walk forward to the branch (Join) node for this if.
  cfg::EventId n = e;
  while (true) {
    const auto& ss = cfg.succs(n);
    if (ss.size() != 1) break;
    n = ss[0].to;
    const cfg::Event& cur = cfg.node(n);
    if (cur.kind == cfg::EventKind::Join && cur.stmt == ev.stmt) {
      cfg::EdgeKind want = negated ? cfg::EdgeKind::False : cfg::EdgeKind::True;
      for (const cfg::Edge& s : cfg.succs(n))
        if (s.kind == want) out.push_back(s.to);
      return;
    }
    if (cur.is_action()) break;  // something else runs first; give up
  }
  all_succs();
}

bool may_alias(const Program& prog, const AccessPath& a, const AccessPath& b) {
  if (!a.root.valid() || !b.root.valid()) return true;  // unknown: be safe

  // Plain variables occupy their own storage: they alias only themselves,
  // and never alias heap locations.
  if (a.sels.empty() || b.sels.empty()) {
    return a.sels.empty() && b.sels.empty() && a.root == b.root;
  }

  const cfg::Selector& sa = a.sels.back();
  const cfg::Selector& sb = b.sels.back();
  if (sa.kind != sb.kind) return false;
  if (sa.kind == cfg::Selector::Field) {
    if (sa.field != sb.field) return false;
    // Same field name: require the holding classes to possibly coincide.
    if (types_definitely_differ(prog, path_prefix_type(prog, a),
                                path_prefix_type(prog, b)))
      return false;
    return true;
  }
  // Array elements: compare element types.
  return !types_definitely_differ(prog, path_type(prog, a), path_type(prog, b));
}

AliasKey alias_key(const Program& prog, const AccessPath& path) {
  AliasKey k;
  if (!path.root.valid()) return k;
  if (path.sels.empty()) {
    k.kind = AliasKey::Var;
    k.id = path.root.idx;
    return k;
  }
  const cfg::Selector& sel = path.sels.back();
  if (sel.kind == cfg::Selector::Index) {
    k.kind = AliasKey::Elem;
    return k;
  }
  // may_alias separates two fields only by their holders' definite
  // classes, so a holder that is not a Ref stays indefinite.
  k.kind = AliasKey::Field;
  k.id = sel.field.id();
  TypeId holder = path_prefix_type(prog, path);
  if (holder.valid() && prog.type(holder).kind == TypeKind::Ref)
    k.holder = prog.type(holder).cls.idx;
  return k;
}

void AliasIndex::reserve(size_t items) { added_.reserve(items); }

void AliasIndex::add(const Program& prog, const AccessPath& path) {
  added_.push_back(alias_key(prog, path));
  ++size_;
}

/// Two passes over the added items, each finding an item's bucket through
/// the slot table: the first numbers the buckets and counts their items,
/// the second fills each bucket in item order, so it lists its items
/// ascending. Each array is allocated once.
template <class Key, class KeyOf>
void AliasIndex::lay_out(KeyOf key_of, Buckets<Key>& out) const {
  size_t keyed = 0;
  for (const AliasKey& k : added_)
    if (key_of(k)) ++keyed;
  if (keyed == 0) return;
  size_t slots = 1;
  while (slots < 2 * keyed) slots *= 2;
  out.slots.assign(slots, 0);
  out.keys.reserve(keyed);
  out.begin.reserve(keyed + 1);
  out.begin.push_back(0);
  // Bucket b's count goes to begin[b + 1], then the sums make begin[b]
  // its start.
  for (const AliasKey& k : added_) {
    auto key = key_of(k);
    if (!key) continue;
    const size_t s = out.probe(*key);
    if (out.slots[s] == 0) {
      out.keys.push_back(*key);
      out.begin.push_back(0);
      out.slots[s] = static_cast<uint32_t>(out.keys.size());
    }
    ++out.begin[out.slots[s]];
  }
  for (size_t b = 1; b < out.begin.size(); ++b) out.begin[b] += out.begin[b - 1];
  // `begin` doubles as each bucket's fill cursor, then shifts back.
  out.items.resize(keyed);
  for (uint32_t item = 0; item < added_.size(); ++item)
    if (auto key = key_of(added_[item]))
      out.items[out.begin[out.slots[out.probe(*key)] - 1]++] = item;
  for (size_t b = out.keys.size(); b > 0; --b) out.begin[b] = out.begin[b - 1];
  out.begin[0] = 0;
}

void AliasIndex::finish() {
  lay_out([](const AliasKey& k) { return std::optional<AliasKey>(k); },
          by_key_);
  lay_out(
      [](const AliasKey& k) {
        return k.kind == AliasKey::Field ? std::optional<uint32_t>(k.id)
                                         : std::nullopt;
      },
      by_field_);
  added_ = {};
}

}  // namespace synat::analysis
