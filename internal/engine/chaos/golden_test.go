package chaos

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"deptree/internal/discovery/registry"
	"deptree/internal/engine"
	"deptree/internal/obs"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/truncation.golden from the current code")

// goldenBudgets are the MaxTasks values TestTruncationGolden pins; 0 is
// the unlimited run.
var goldenBudgets = []int64{0, 10, 40, 120}

// TestTruncationGolden pins where every registered discoverer stops
// under a MaxTasks budget, not just that workers=1 and workers=4 agree
// (TestPartialPrefixConsistency): a change that moved the truncation
// point — an extra Reserve, a different stripe width — shifts both
// worker counts alike and passes that test, but not this one. Per run it
// records the rendered output, the span log (kind, name, parent, attrs;
// no timings) and every counter and gauge of a fresh registry.
//
// The golden file is a behaviour pin, written once from a known-good
// tree. Regenerating it to absorb a diff defeats its purpose; a change
// that means to move a truncation point must say so and justify the new
// file.
func TestTruncationGolden(t *testing.T) {
	r := hotel(40)
	var b strings.Builder
	for _, a := range registry.All() {
		for _, max := range goldenBudgets {
			in := r
			if a.Name == "fastdc" {
				in = r.Select(func(row int) bool { return row < 25 })
			}
			reg := obs.New()
			out := a.Run(context.Background(), in, registry.RunOptions{
				Workers: 1, Budget: engine.Budget{MaxTasks: max}, Obs: reg,
			})
			fmt.Fprintf(&b, "=== %s max-tasks=%d\n", a.Name, max)
			b.WriteString(out.Text())
			writeObs(&b, reg)
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "truncation.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s diverges at line %d:\n got: %q\nwant: %q", path, i+1, g, w)
		}
	}
}

// writeObs renders a registry's span log and its counters and gauges
// deterministically: spans in completion order with their parent named
// by kind and name, attributes and metrics sorted by key. Histograms and
// span timings are left out, since they measure wall time.
func writeObs(b *strings.Builder, reg *obs.Registry) {
	events := reg.Events()
	label := make(map[int64]string, len(events))
	for _, ev := range events {
		label[ev.ID] = ev.Kind + ":" + ev.Name
	}
	for _, ev := range events {
		parent := "-"
		if ev.Parent != 0 {
			parent = label[ev.Parent]
		}
		fmt.Fprintf(b, "span %s:%s parent=%s", ev.Kind, ev.Name, parent)
		keys := make([]string, 0, len(ev.Attrs))
		for k := range ev.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(b, " %s=%v", k, ev.Attrs[k])
		}
		b.WriteByte('\n')
	}
	snap := reg.Snapshot()
	for _, c := range snap.Counters {
		fmt.Fprintf(b, "counter %s=%d\n", c.Name, c.Value)
	}
	for _, g := range snap.Gauges {
		fmt.Fprintf(b, "gauge %s=%d\n", g.Name, g.Value)
	}
}
