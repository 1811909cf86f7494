package ycsb

import "testing"

func hotspotWorkload(dist string, records, shiftEvery int) Workload {
	return Workload{
		Name:          "hot",
		RecordCount:   records,
		FieldLength:   16,
		ReadProp:      1.0,
		RequestDist:   dist,
		HotDataFrac:   0.25,
		HotOpFrac:     0.9,
		HotShiftEvery: shiftEvery,
	}
}

func TestHotspotConcentratesOps(t *testing.T) {
	// The declared hot set is the first HotDataFrac of the keyspace.
	const records, n, size = 1000, 40000, 1000 / 4
	g := NewGenerator(hotspotWorkload(DistHotspot, records, 0), 11)
	hot := 0
	for i := 0; i < n; i++ {
		k := g.Next().Key
		if k < 0 || k >= records {
			t.Fatalf("key %d out of range", k)
		}
		if k < size {
			hot++
		}
	}
	// 90% of ops land in the hot quarter (generous tolerance for the
	// finite sample).
	if hot < n*85/100 || hot > n*95/100 {
		t.Fatalf("hot-set hits %d/%d, want ~90%%", hot, n)
	}
}

func TestHotspotColdIsUniformOverComplement(t *testing.T) {
	const records, size = 400, 400 / 4
	g := NewGenerator(hotspotWorkload(DistHotspot, records, 0), 5)
	counts := make([]int, records)
	const n = 60000
	for i := 0; i < n; i++ {
		counts[g.Next().Key]++
	}
	// Every cold key should be reachable: the complement draw covers
	// the whole keyspace outside the window.
	for k := size; k < records; k++ {
		if counts[k] == 0 {
			t.Fatalf("cold key %d never drawn", k)
		}
	}
}

func TestShiftingHotspotMoves(t *testing.T) {
	const records, every, size = 1000, 5000, 1000 / 4
	g := NewGenerator(hotspotWorkload(DistShifting, records, every), 3)
	// Phase p's hot window starts at (p*size) mod records, p advancing
	// every HotShiftEvery draws. Check the observed hot mass tracks the
	// moving window for several phases, including one past the
	// wraparound.
	for p := 0; p < records/size+2; p++ {
		wantStart := int64(p*size) % records
		inWindow := 0
		for i := 0; i < every; i++ {
			k := g.Next().Key
			if (k-wantStart+records)%records < size {
				inWindow++
			}
		}
		if inWindow < every*85/100 {
			t.Fatalf("phase %d: only %d/%d ops in window [%d,+%d)", p, inWindow, every, wantStart, size)
		}
	}
}

func TestHotspotDeterministic(t *testing.T) {
	for _, dist := range []string{DistHotspot, DistShifting} {
		a := NewGenerator(hotspotWorkload(dist, 500, 50), 9)
		b := NewGenerator(hotspotWorkload(dist, 500, 50), 9)
		for i := 0; i < 2000; i++ {
			oa, ob := a.Next(), b.Next()
			if oa.Kind != ob.Kind || oa.Key != ob.Key {
				t.Fatalf("%s: same seed diverged at op %d", dist, i)
			}
		}
		c := NewGenerator(hotspotWorkload(dist, 500, 50), 10)
		diff := false
		for i := 0; i < 2000; i++ {
			if a.Next().Key != c.Next().Key {
				diff = true
				break
			}
		}
		if !diff {
			t.Fatalf("%s: different seeds produced identical streams", dist)
		}
	}
}

func TestExplicitDistOverridesZipfianFlag(t *testing.T) {
	w := WorkloadC(1000)
	w.RequestDist = DistUniform
	g := NewGenerator(w, 4)
	counts := make(map[int64]int)
	const n = 20000
	for i := 0; i < n; i++ {
		counts[g.Next().Key]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	// Uniform: hottest key stays near the uniform share, nothing like
	// the 20x+ a zipfian would show.
	if max > 8*n/1000 {
		t.Fatalf("hottest key got %d hits; RequestDist=uniform should not be skewed", max)
	}
}

func TestTinyHotSetClamped(t *testing.T) {
	w := hotspotWorkload(DistHotspot, 3, 0)
	w.HotDataFrac = 0.01 // rounds below one key; clamps to 1
	g := NewGenerator(w, 2)
	const n = 2000
	hot := 0
	for i := 0; i < n; i++ {
		k := g.Next().Key
		if k < 0 || k >= 3 {
			t.Fatalf("key %d out of range", k)
		}
		if k == 0 {
			hot++
		}
	}
	// The clamped window is key 0 alone, drawn HotOpFrac of the time.
	if hot < n*85/100 || hot > n*95/100 {
		t.Fatalf("key 0 drawn %d/%d times, want ~90%%", hot, n)
	}
}
