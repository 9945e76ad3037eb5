package refmodel

import (
	"fmt"
	"strings"

	"igosim/internal/dram"
	"igosim/internal/sim"
)

// Compare checks a simulator result against the oracle's counts and returns
// a descriptive error listing every field that disagrees, or nil when the
// two are bit-identical. The comparison is exact: the engine and the oracle
// consume the same hardware cost primitives, so even cycle counts must
// match to the last digit.
func Compare(got sim.Result, want Counts) error {
	var d differ
	d.result("", got, want)
	return d.err()
}

// CompareMulti is Compare for a multi-core run: the makespan, shared hits,
// aggregate traffic and every core's counters, each diverging field named
// (per-core fields as core<i>.<field>).
func CompareMulti(got sim.MultiResult, want MultiCounts) error {
	var d differ
	d.add("Cycles", got.Cycles, want.Cycles)
	d.add("SharedHits", got.SharedHits, want.SharedHits)
	d.traffic("", got.Traffic, want.Traffic)
	d.add("len(PerCore)", int64(len(got.PerCore)), int64(len(want.PerCore)))
	for c := range min(len(got.PerCore), len(want.PerCore)) {
		d.result(fmt.Sprintf("core%d.", c), got.PerCore[c], want.PerCore[c])
	}
	return d.err()
}

// differ collects field-level disagreements.
type differ struct{ diffs []string }

func (d *differ) add(field string, g, w int64) {
	if g != w {
		d.diffs = append(d.diffs, fmt.Sprintf("%s: sim %d, oracle %d", field, g, w))
	}
}

func (d *differ) result(prefix string, got sim.Result, want Counts) {
	d.add(prefix+"Cycles", got.Cycles, want.Cycles)
	d.add(prefix+"ComputeCycles", got.ComputeCycles, want.ComputeCycles)
	d.add(prefix+"MemCycles", got.MemCycles, want.MemCycles)
	d.add(prefix+"Ops", got.Ops, want.Ops)
	d.add(prefix+"SPM.Hits", got.SPM.Hits, want.Hits)
	d.add(prefix+"SPM.Misses", got.SPM.Misses, want.Misses)
	d.add(prefix+"SPM.Evictions", got.SPM.Evictions, want.Evictions)
	d.add(prefix+"Spills", got.Spills, want.Spills)
	d.traffic(prefix, got.Traffic, want.Traffic)
}

func (d *differ) traffic(prefix string, got, want dram.Traffic) {
	for _, c := range dram.Classes() {
		d.add(fmt.Sprintf("%sTraffic.Read[%v]", prefix, c), got.Read[c], want.Read[c])
		d.add(fmt.Sprintf("%sTraffic.Write[%v]", prefix, c), got.Write[c], want.Write[c])
	}
}

func (d *differ) err() error {
	if len(d.diffs) == 0 {
		return nil
	}
	return fmt.Errorf("refmodel: simulator disagrees with oracle on %d field(s): %s",
		len(d.diffs), strings.Join(d.diffs, "; "))
}
