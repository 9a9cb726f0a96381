package machine

// RepairCosts prices an incremental plan repair against a cold re-inspection,
// in abstract per-item units (only the ratios matter, exactly like the
// simulator's CostModel). A cold inspection walks every iteration's access
// closures and every dependency edge — writer-index fill, predecessor scan,
// structural hash — so it is charged per iteration-or-edge. A repair touches
// only the dirty cone (worklist, heap and predecessor re-scan per member)
// plus one cheap pass to re-scatter the decomposition's suffix, so it is
// charged per cone member and per suffix member at far smaller weights.
type RepairCosts struct {
	// InspectPerItem is the cold inspection's cost per iteration and per
	// edge: a closure call, an append, a dedup step, a hash mix.
	InspectPerItem float64
	// ConePerIter is the repair's cost per dirty-cone member: a heap pop, a
	// membership probe and a predecessor max-scan.
	ConePerIter float64
	// SuffixPerIter is the repair's cost per member of the rebuilt level
	// suffix: an int32 count-and-scatter step, memcpy-grade work.
	SuffixPerIter float64
}

// DefaultRepairCosts are the ratios the runtime's repair gate and the
// doastat break-even report use. The cone weight is deliberately the
// heaviest — the worklist pays map and heap constants per member that the
// linear scans of both other terms do not — so a cone approaching the loop
// size loses to the cold path even though repair's suffix scan is cheap.
var DefaultRepairCosts = RepairCosts{InspectPerItem: 4, ConePerIter: 16, SuffixPerIter: 1}

// ColdInspect estimates a cold inspection of a loop with the given iteration
// and dependency-edge counts: iterations are scanned twice (writer fill and
// level sweep), edges once each.
func (rc RepairCosts) ColdInspect(iterations, edges int) float64 {
	return rc.InspectPerItem * float64(2*iterations+edges)
}

// Repair estimates an incremental repair with the given dirty-cone size and
// rebuilt-suffix member count.
func (rc RepairCosts) Repair(cone, suffix int) float64 {
	return rc.ConePerIter*float64(cone) + rc.SuffixPerIter*float64(suffix)
}

// BreakEvenCone returns the largest dirty cone for which an incremental
// repair is predicted cheaper than a cold re-inspection, assuming the
// worst-case suffix (the whole loop rescattered). Edits whose cone stays
// under this threshold should repair; larger ones should re-inspect cold.
func (rc RepairCosts) BreakEvenCone(iterations, edges int) int {
	if rc.ConePerIter <= 0 {
		return iterations
	}
	c := (rc.ColdInspect(iterations, edges) - rc.SuffixPerIter*float64(iterations)) / rc.ConePerIter
	if c < 0 {
		return 0
	}
	return int(c)
}
