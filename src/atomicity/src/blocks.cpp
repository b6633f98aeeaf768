#include "synat/atomicity/blocks.h"

#include "synat/obs/trace.h"

namespace synat::atomicity {

using synl::Stmt;
using synl::StmtId;
using synl::StmtKind;

namespace {

Atomicity stmt_atom_of(const VariantResult& v, StmtId id) {
  const StmtAtoms::Entry* e = v.stmt_atom.find(id);
  return e == nullptr ? Atomicity::B : e->whole;
}

/// Atomicity of the statement's own events (the Local initializer).
Atomicity head_atom_of(const VariantResult& v, StmtId id) {
  const StmtAtoms::Entry* e = v.stmt_atom.find(id);
  return e == nullptr ? Atomicity::B : e->own;
}

void flatten(const synl::Program& prog, const VariantResult& v, StmtId id,
             std::vector<BlockUnit>& out) {
  if (!id.valid()) return;
  const Stmt& s = prog.stmt(id);
  switch (s.kind) {
    case StmtKind::Block:
      for (StmtId child : prog.children(s)) flatten(prog, v, child, out);
      break;
    case StmtKind::Local:
      out.push_back({id, head_atom_of(v, id)});
      flatten(prog, v, s.s1, out);
      break;
    case StmtKind::Skip:
      break;
    default:
      out.push_back({id, stmt_atom_of(v, id)});
      break;
  }
}

}  // namespace

BlockPartition partition_blocks(const synl::Program& prog,
                                const VariantResult& v) {
  obs::SpanScope span(obs::StageId::Blocks);
  BlockPartition out;
  out.variant = v.variant;

  std::vector<BlockUnit> units;
  flatten(prog, v, prog.proc(v.variant).body, units);

  AtomicBlock cur;
  for (const BlockUnit& u : units) {
    Atomicity trial = seq(cur.atom, u.atom);
    if (trial == Atomicity::N && !cur.units.empty()) {
      out.blocks.push_back(std::move(cur));
      cur = AtomicBlock{};
      trial = u.atom;
    }
    cur.units.push_back(u);
    cur.atom = trial;
  }
  if (!cur.units.empty()) out.blocks.push_back(std::move(cur));
  return out;
}

std::vector<obs::ProvenanceRecord> block_provenance(
    const synl::Program& prog, const VariantResult& v,
    const BlockPartition& part) {
  std::vector<obs::ProvenanceRecord> out;
  const std::string vname =
      prog.proc(v.variant).variant_tag.empty()
          ? std::string(prog.syms().name(prog.proc(v.variant).name))
          : prog.proc(v.variant).variant_tag;
  for (size_t b = 0; b < part.blocks.size(); ++b) {
    const AtomicBlock& blk = part.blocks[b];
    obs::ProvenanceRecord r;
    r.step = 6;
    r.rule = "atomic-block";
    r.subject = vname + " block " + std::to_string(b + 1);
    uint32_t end_line = 0;
    if (!blk.units.empty()) {
      StmtId first = blk.units.front().stmt;
      StmtId last = blk.units.back().stmt;
      if (first.valid()) {
        r.line = prog.stmt(first).loc.line;
        r.column = prog.stmt(first).loc.column;
      }
      if (last.valid()) end_line = prog.stmt(last).loc.line;
    }
    r.atom = std::string(to_string(blk.atom));
    r.detail = std::to_string(blk.units.size()) +
               " unit(s) compose to " + r.atom;
    if (end_line != 0 && end_line != r.line)
      r.detail += " (through line " + std::to_string(end_line) + ")";
    if (b + 1 < part.blocks.size())
      r.detail += "; extending past the cut would reach N";
    out.push_back(std::move(r));
  }
  return out;
}

BlockSummary summarize_blocks(const synl::Program& prog,
                              const AtomicityResult& result) {
  BlockSummary sum;
  for (const ProcResult& pr : result.procs()) {
    ++sum.total_procs;
    size_t blocks = 1;
    if (pr.atomic) {
      ++sum.atomic_procs;
    } else {
      for (const VariantResult& v : pr.variants) {
        blocks = std::max(blocks, partition_blocks(prog, v).blocks.size());
      }
    }
    sum.total_blocks += blocks;
    sum.per_proc.emplace_back(pr.proc, blocks);
  }
  return sum;
}

}  // namespace synat::atomicity
