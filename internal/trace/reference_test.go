package trace

import (
	"reflect"
	"sort"
	"testing"

	"kloc/internal/sim"
)

// referenceStats recomputes a Stats report from the buffered events
// alone, one plain increment per event: per-name totals and per-context
// totals and window counts.
func referenceStats(events []Event, window sim.Duration) (byName []NameCount, contexts []ContextSummary) {
	names := map[Name]uint64{}
	ctxs := map[uint64]*ContextSummary{}
	for _, e := range events {
		names[e.Name]++
		cs := ctxs[e.Ctx]
		if cs == nil {
			cs = &ContextSummary{Ctx: e.Ctx}
			ctxs[e.Ctx] = cs
		}
		cs.Total++
		w := int(e.At / sim.Time(window))
		if w >= maxSummaryWindows {
			w = maxSummaryWindows - 1
		}
		for len(cs.Windows) <= w {
			cs.Windows = append(cs.Windows, 0)
		}
		cs.Windows[w]++
	}
	for n, c := range names {
		byName = append(byName, NameCount{Name: n, Count: c})
	}
	sort.Slice(byName, func(i, j int) bool { return byName[i].Name < byName[j].Name })
	for _, cs := range ctxs {
		contexts = append(contexts, *cs)
	}
	sort.Slice(contexts, func(i, j int) bool {
		if contexts[i].Total != contexts[j].Total {
			return contexts[i].Total > contexts[j].Total
		}
		return contexts[i].Ctx < contexts[j].Ctx
	})
	if len(contexts) > maxStatsContexts {
		contexts = contexts[:maxStatsContexts]
	}
	return byName, contexts
}

// TestSummaryMatchesReference: with a ring large enough to drop
// nothing, the run-length batched summaries must equal a per-event
// recount of Events(). Streams that break runs on almost every event
// and streams that break them rarely both run, some with a name filter,
// and Stats is read mid-stream so a flush in the middle of a run is
// covered too. Times run past maxSummaryWindows windows, so the clamp
// on the last window is exercised; the ring holds every event.
func TestSummaryMatchesReference(t *testing.T) {
	names := []Name{AllocSlab, AllocPage, ObjFree, NetRx, Migrate}
	cases := []struct {
		name   string
		events int
		ctxs   int
		runLen int // mean events per same-context run
		filter []string
	}{
		{name: "churn", events: 20000, ctxs: 40, runLen: 1},
		{name: "runs", events: 20000, ctxs: 6, runLen: 300},
		{name: "runs-filtered", events: 20000, ctxs: 24, runLen: 40, filter: []string{"alloc.*", "net.rx"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := New(Config{Events: tc.filter})
			rng := sim.NewRNG(uint64(len(tc.name)))
			var now sim.Time
			ctx := uint64(1)
			for i := 0; i < tc.events; i++ {
				// Up to two thousandths of a window apart.
				now += sim.Time(rng.Intn(2000)) * sim.Time(summaryWindow) / 1000
				if rng.Intn(tc.runLen) == 0 {
					ctx = uint64(rng.Intn(tc.ctxs))
				}
				tr.Emit(names[rng.Intn(len(names))], now, ctx, uint64(i), "obj", 0, 64)
				if rng.Intn(1000) == 0 {
					tr.Stats()
				}
			}
			if tr.Dropped() != 0 {
				t.Fatalf("ring dropped %d events", tr.Dropped())
			}
			events := tr.Events()
			if uint64(len(events)) != tr.Emitted() {
				t.Fatalf("%d buffered events, %d emitted", len(events), tr.Emitted())
			}
			wantNames, wantCtxs := referenceStats(events, summaryWindow)
			got := tr.Stats()
			if !reflect.DeepEqual(got.ByName, wantNames) {
				t.Fatalf("ByName %v, reference %v", got.ByName, wantNames)
			}
			if !reflect.DeepEqual(got.Contexts, wantCtxs) {
				t.Fatalf("contexts differ from the reference recount:\n%+v\n%+v", got.Contexts, wantCtxs)
			}
			if tc.runLen > 1 && tr.SummaryCommits() >= tr.Emitted()/2 {
				t.Fatalf("%d summary commits for %d events: runs were not batched", tr.SummaryCommits(), tr.Emitted())
			}
		})
	}
}
