// Eyal–Sirer closed forms for Bitcoin selfish mining ("Majority is not
// enough", CACM 2018) -- the paper's baseline in Fig. 10 ("Ittay Model").
//
// Bitcoin has no uncle rewards, and its difficulty keeps the regular-block
// rate constant, so absolute and relative revenue coincide (Sec. IV-E2).

#ifndef ETHSM_ANALYSIS_BITCOIN_ES_H
#define ETHSM_ANALYSIS_BITCOIN_ES_H

namespace ethsm::analysis {

/// Profitability threshold in Bitcoin: alpha* = (1-g) / (3-2g); 1/3 at g=0,
/// 1/4 at g=1/2 (the famous 25%), 0 at g=1.
[[nodiscard]] double eyal_sirer_threshold(double gamma);

}  // namespace ethsm::analysis

#endif  // ETHSM_ANALYSIS_BITCOIN_ES_H
