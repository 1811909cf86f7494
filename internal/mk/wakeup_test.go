package mk

import (
	"fmt"
	"strings"
	"testing"
)

// TestAdaptiveWaitRejectsSecondSpinner: a parker holds one waiter's spin
// state, so a second AdaptiveWait on it while the first waiter still
// spins panics, naming both threads.
func TestAdaptiveWaitRejectsSecondSpinner(t *testing.T) {
	eng, k, p, _ := world(t, SeL4, false)
	var parker Parker
	never := func() bool { return false }
	pol := WakePolicy{SpinBudget: 100_000}
	p.Spawn("first", k.Mach.Cores[0], func(env *Env) {
		env.AdaptiveWait(&parker, pol, never, nil, nil)
	})
	p.Spawn("second", k.Mach.Cores[1], func(env *Env) {
		env.Compute(500)
		env.AdaptiveWait(&parker, pol, never, nil, nil)
	})
	got := func() (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		_ = eng.Run()
		return ""
	}()
	if !strings.Contains(got, "second") || !strings.Contains(got, "first is still spinning") {
		t.Fatalf("Run panicked with %q, want the second wait rejected while first spins", got)
	}
}

// TestAdaptiveWaitReusesParker: waits that follow each other on one
// parker, one ending in the spin and one in a park, both resolve.
func TestAdaptiveWaitReusesParker(t *testing.T) {
	eng, k, p, _ := world(t, SeL4, false)
	var parker Parker
	flag := false
	ready := func() bool { return flag }
	var kinds []WakeKind
	p.Spawn("waiter", k.Mach.Cores[0], func(env *Env) {
		kinds = append(kinds, env.AdaptiveWait(&parker, WakePolicy{}, ready, nil, nil))
		flag = false
		kinds = append(kinds, env.AdaptiveWait(&parker, WakePolicy{}, ready, nil, nil))
	})
	p.Spawn("setter", k.Mach.Cores[1], func(env *Env) {
		env.Compute(200)
		env.T.Checkpoint()
		flag = true
		env.Compute(10 * DefaultSpinBudget)
		env.T.Checkpoint()
		flag = true
		k.WakeParker(env.T.Core, &parker)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(kinds) != 2 || kinds[0] != WokeSpin || kinds[1] != WokeIPI {
		t.Fatalf("wait kinds %v, want [WokeSpin WokeIPI]", kinds)
	}
	if k.SpinWakes != 1 || k.Parks != 1 || k.IPIWakes != 1 {
		t.Fatalf("spin wakes %d parks %d IPI wakes %d, want 1 each", k.SpinWakes, k.Parks, k.IPIWakes)
	}
}
