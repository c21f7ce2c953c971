package obs

import (
	"bytes"
	"encoding/json"
	"sort"
	"testing"
)

// TestSnapshotDeterministicOrder pins the snapshot contract consumers
// rely on (the -stats text, the expvar JSON, the /metrics exposition):
// metric groups come out sorted by name regardless of registration or
// bump order, so two snapshots of the same state render byte-identically.
func TestSnapshotDeterministicOrder(t *testing.T) {
	prev := Enabled()
	SetEnabled(true)
	defer SetEnabled(prev)

	// Register and bump in an order that is neither sorted nor stable.
	for _, name := range []string{"ztest.order.c", "ztest.order.a", "ztest.order.b"} {
		NewCounter(name).Add(1)
	}
	NewMaxGauge("ztest.order.max.b").Observe(2)
	NewMaxGauge("ztest.order.max.a").Observe(1)
	NewGauge("ztest.order.gauge.b").Add(1)
	NewGauge("ztest.order.gauge.a").Add(1)
	NewHistogram("ztest.order.hist.b").Observe(0, 5)
	NewHistogram("ztest.order.hist.a").Observe(0, 3)

	s := Snapshot()
	sortedNames := func(names []string) bool { return sort.StringsAreSorted(names) }
	var counters, maxes, gauges, hists []string
	for _, c := range s.Counters {
		counters = append(counters, c.Name)
	}
	for _, c := range s.Maxes {
		maxes = append(maxes, c.Name)
	}
	for _, c := range s.Gauges {
		gauges = append(gauges, c.Name)
	}
	for _, h := range s.Hists {
		hists = append(hists, h.Name)
	}
	for group, names := range map[string][]string{
		"counters": counters, "maxes": maxes, "gauges": gauges,
		"histograms": hists,
	} {
		if len(names) == 0 {
			t.Errorf("%s: empty group in test snapshot", group)
		}
		if !sortedNames(names) {
			t.Errorf("%s not sorted by name: %v", group, names)
		}
	}

	// Two renders of the same state are byte-identical, in every format.
	s2 := Snapshot()
	var text1, text2 bytes.Buffer
	if err := s.WriteText(&text1); err != nil {
		t.Fatal(err)
	}
	if err := s2.WriteText(&text2); err != nil {
		t.Fatal(err)
	}
	if text1.String() != text2.String() {
		t.Errorf("WriteText not deterministic:\n%s\nvs\n%s", text1.String(), text2.String())
	}
	j1, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.Marshal(s2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Errorf("JSON not deterministic:\n%s\nvs\n%s", j1, j2)
	}
	var prom1, prom2 bytes.Buffer
	build := &BuildLabels{Version: "v0", Revision: "r0", GoVersion: "go0"}
	if err := WriteProm(&prom1, s, build); err != nil {
		t.Fatal(err)
	}
	if err := WriteProm(&prom2, s2, build); err != nil {
		t.Fatal(err)
	}
	if prom1.String() != prom2.String() {
		t.Errorf("WriteProm not deterministic:\n%s\nvs\n%s", prom1.String(), prom2.String())
	}
}
