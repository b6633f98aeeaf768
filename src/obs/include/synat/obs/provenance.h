// Verdict provenance: structured justifications for classification
// decisions (DESIGN.md §3f).
//
// The inference algorithm (paper Section 5.4) is a derivation: Steps 1–7
// assign each action a mover class by citing Theorems 3.1–3.3, 5.1 and
// 5.3–5.5, and the variant/purity machinery (Sections 4–5.2) decides what
// those steps even see. A `ProvenanceRecord` captures one step of that
// derivation — which rule fired (or which premise failed), on what subject,
// at which source location, and, for conflicts, the witness on the other
// side. Records are plain data: deterministic to produce, stable to order,
// cheap to ship over a SYNF frame, and renderable as a derivation tree
// (`synat explain`).
//
// The obs layer owns only the record type and its metric accounting;
// emission lives with the analyses (src/analysis, src/atomicity) and
// transport/rendering with the driver.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace synat::obs {

/// One step of a classification derivation.
///
/// `step` keys into the paper's numbering: 0 for pre-inference facts
/// (variant generation, pure-loop purity), 1–5 for the per-event mover
/// assignment, 6 for the statement-level atomicity propagation, and 7 for
/// the per-procedure verdict (join over variants).
struct ProvenanceRecord {
  uint32_t step = 0;       ///< inference step 0–7
  std::string theorem;     ///< "3.1".."5.5", or "" when no theorem applies
  std::string rule;        ///< stable machine keyword, e.g. "window-exclusion"
  std::string subject;     ///< what was classified, e.g. "SC(Ready, 1)"
  uint32_t line = 0;       ///< subject source line (1-based, 0 = unknown)
  uint32_t column = 0;     ///< subject source column (1-based, 0 = unknown)
  std::string atom;        ///< resulting class "B"/"L"/"R"/"A"/"N", or ""
  std::string detail;      ///< human-readable sentence for `synat explain`
  std::string witness;     ///< conflicting access on the other side, or ""
  uint32_t witness_line = 0;
  uint32_t witness_column = 0;

  friend bool operator==(const ProvenanceRecord&,
                         const ProvenanceRecord&) = default;
};

/// Short title for a step number, for rendering ("step 4 (commutativity)").
std::string_view provenance_step_title(uint32_t step);

/// Metric series name for one record:
/// `synat_provenance_records{step="4",theorem="5.5"}` (theorem "" renders
/// as `none`). The labeled name is a plain registry counter — the
/// Prometheus exporter splits labels off before applying its `_total`
/// suffix rule.
std::string provenance_counter_name(const ProvenanceRecord& r);

/// Bumps the labeled counter for each record. Call once per record at the
/// point it becomes part of a reported result (so totals count reported
/// procedures, not what a conflict universe merely contains).
void count_provenance(const std::vector<ProvenanceRecord>& records);

}  // namespace synat::obs
