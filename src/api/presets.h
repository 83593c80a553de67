// Named experiment presets: every paper figure/table plus the extension
// studies, expressed as ExperimentSpecs. `ethsm run fig8`, `ethsm run --all`
// and the results daemon resolve through this registry, and the checkpoint
// GC keeps exactly the sweep fingerprints these presets reference.

#ifndef ETHSM_API_PRESETS_H
#define ETHSM_API_PRESETS_H

#include <string>
#include <string_view>
#include <vector>

#include "api/spec.h"

namespace ethsm::api {

struct Preset {
  std::string name;         ///< CLI handle ("fig8", "table2", ...)
  std::string description;  ///< one line for `ethsm list`
  /// Spec builder; quick = smaller grids / fewer runs (CI and smoke tests).
  ExperimentSpec (*spec)(bool quick);
};

/// All registered presets, in display order.
[[nodiscard]] const std::vector<Preset>& presets();

/// nullptr when unknown.
[[nodiscard]] const Preset* find_preset(std::string_view name);

/// Spec of a named preset; SpecError when the name is unknown.
[[nodiscard]] ExperimentSpec preset_spec(std::string_view name, bool quick);

/// One referenced sweep fingerprint: which preset/variant owns it.
struct ReferencedFingerprint {
  std::uint64_t fingerprint = 0;
  std::string owner;  ///< "fig8" or "fig8 --quick"
};

/// Union of checkpoint-store fingerprints over every preset, full and quick
/// variants both -- the keep-set of `ethsm checkpoint-stats --prune`.
[[nodiscard]] std::vector<ReferencedFingerprint> referenced_fingerprints();

/// The preset registry as a JSON document: name, kind, description, and for
/// both the full and the quick variant the canonical spec text plus its
/// provenance fingerprint. `ethsm list --format json` and the daemon's
/// GET /v1/presets serve this same rendering, so scripted clients can
/// discover specs once and POST them back to /v1/run verbatim.
[[nodiscard]] std::string render_presets_json();

}  // namespace ethsm::api

#endif  // ETHSM_API_PRESETS_H
