package obs

import (
	"bytes"
	"encoding/json"
	"sort"
	"testing"
)

func TestRegistryBindReadsLiveField(t *testing.T) {
	r := NewRegistry()
	var field uint64
	r.Bind("cpu0.L1I.misses", &field)
	field = 7 // the hot path increments the plain field
	if got := r.Value("cpu0.L1I.misses"); got != 7 {
		t.Errorf("Value = %d, want 7", got)
	}
	// Rebinding replaces the pointer.
	var other uint64 = 99
	r.Bind("cpu0.L1I.misses", &other)
	if got := r.Value("cpu0.L1I.misses"); got != 99 {
		t.Errorf("after rebind Value = %d, want 99", got)
	}
}

func TestRegistrySumSuffix(t *testing.T) {
	r := NewRegistry()
	a, b, c := uint64(1), uint64(2), uint64(4)
	r.Bind("cpu0.L1I.misses", &a)
	r.Bind("cpu1.L1I.misses", &b)
	r.Bind("cpu0.L1D.misses", &c)
	if got := r.SumSuffix(".L1I.misses"); got != 3 {
		t.Errorf("SumSuffix = %d, want 3", got)
	}
	if got := r.SumSuffix(".misses"); got != 7 {
		t.Errorf("SumSuffix(.misses) = %d, want 7", got)
	}
	if got := r.SumSuffix(".absent"); got != 0 {
		t.Errorf("SumSuffix(absent) = %d, want 0", got)
	}
}

func TestRegistryResetAll(t *testing.T) {
	r := NewRegistry()
	var bound uint64 = 5
	r.Bind("bound", &bound)
	r.Counter("owned").Add(3)
	r.Histogram("lat").Observe(10)
	r.ResetAll()
	if bound != 0 {
		t.Errorf("bound field = %d after ResetAll, want 0", bound)
	}
	if got := r.Value("owned"); got != 0 {
		t.Errorf("owned = %d after ResetAll, want 0", got)
	}
	if got := r.Histogram("lat").Count(); got != 0 {
		t.Errorf("histogram count = %d after ResetAll, want 0", got)
	}
}

func TestRegistryCounterIdentity(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Inc()
	r.Counter("x").Add(2)
	if got := r.Counter("x").Value(); got != 3 {
		t.Errorf("x = %d, want 3", got)
	}
	if got := r.Value("missing"); got != 0 {
		t.Errorf("missing = %d, want 0", got)
	}
}

func TestRegistryWriteJSONDeterministic(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		// Insertion order differs run to run below; output must not.
		for _, n := range []string{"zeta", "alpha", "mid"} {
			r.Counter(n).Add(uint64(len(n)))
		}
		r.Histogram("lat").Observe(42)
		return r
	}
	var b1, b2 bytes.Buffer
	if err := build().WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Errorf("WriteJSON not deterministic:\n%s\nvs\n%s", b1.String(), b2.String())
	}
	var snap Snapshot
	if err := json.Unmarshal(b1.Bytes(), &snap); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if snap.Counters["alpha"] != 5 || snap.Histograms["lat"].Count != 1 {
		t.Errorf("round-trip snapshot = %+v", snap)
	}
	var names []string
	for n := range build().Snapshot().Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	want := []string{"alpha", "mid", "zeta"}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("counter names = %v, want %v", names, want)
		}
	}
}
