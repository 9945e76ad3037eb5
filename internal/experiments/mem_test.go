package experiments

import (
	"os"
	"runtime"
	"runtime/metrics"
	"testing"

	"igosim/internal/core"
)

// memCheckLimit is the live heap a cold fig12 may retain once it returns:
// the process-wide caches it fills (tuner panels, resolved traces, layer
// outcomes) and the pooled engines. With final programs kept as
// descriptors rather than retained compiled programs it retains 160–171 MB
// on a 2-CPU, 8 GB host at 1 to 8 workers (327 MB with a compiled-program
// cache, about 1.1 GB with panels of compiled candidate programs); the
// limit leaves about 30% over the widest of those.
const memCheckLimit = 220 << 20

// TestFig12RetainedHeap is the heap gate behind `make mem-check`: a cold
// fig12, a full GC, then the live heap read from runtime/metrics must stay
// under memCheckLimit. It runs the paper's headline figure, so it only
// runs when IGOSIM_MEM_CHECK=1 is set.
func TestFig12RetainedHeap(t *testing.T) {
	if os.Getenv("IGOSIM_MEM_CHECK") != "1" {
		t.Skip("set IGOSIM_MEM_CHECK=1 (or run `make mem-check`) for the retained-heap gate")
	}
	core.ResetCaches()
	defer core.ResetCaches()
	if _, err := ByID("fig12"); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		t.Fatalf("runtime/metrics has no %s", s[0].Name)
	}
	live := s[0].Value.Uint64()
	t.Logf("live heap after a cold fig12: %d MB (limit %d MB)", live>>20, memCheckLimit>>20)
	if live > memCheckLimit {
		t.Errorf("a cold fig12 retains %d MB of live heap, over the %d MB limit", live>>20, memCheckLimit>>20)
	}
}
