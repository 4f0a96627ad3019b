package perfmodel

import "repro/internal/telemetry"

// PredictedPhases projects an analytic Breakdown onto the telemetry
// phase taxonomy, in seconds per step — the "predicted" column of
// telemetry's observed-vs-predicted attribution report.
//
// The mapping follows the model's own accounting: Compute is fwd+bwd
// MLP+interaction FLOP time at a 1:2 forward:backward ratio (the flops
// term is 3× the forward pass), EmbLookup covers the full
// lookup/scatter/optimizer traffic of the embedding tables (so it is
// compared against the observed emb_lookup + sparse_scatter +
// sparse_apply time by callers that fold phases), Comm is the pooled-row
// all-to-all, and
// AllReduce the dense-gradient synchronization.
func PredictedPhases(bd Breakdown) map[telemetry.Phase]float64 {
	return map[telemetry.Phase]float64{
		telemetry.PhaseDenseFwd:  bd.Compute / 3,
		telemetry.PhaseDenseBwd:  bd.Compute * 2 / 3,
		telemetry.PhaseEmbLookup: bd.EmbLookup,
		telemetry.PhaseAllToAll:  bd.Comm,
		telemetry.PhaseAllReduce: bd.AllReduce,
	}
}
