package bench

import (
	"slices"
	"testing"
	"time"
)

// TestZipfApportionBelowFloor: with fewer operations than slots every
// slot keeps its one-op floor, and the split returns instead of shedding
// forever.
func TestZipfApportionBelowFloor(t *testing.T) {
	done := make(chan []int, 1)
	go func() { done <- zipfApportion(4, 8, 0.99) }()
	select {
	case got := <-done:
		if want := []int{1, 1, 1, 1, 1, 1, 1, 1}; !slices.Equal(got, want) {
			t.Errorf("zipfApportion(4, 8, 0.99) = %v, want %v", got, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("zipfApportion(4, 8, 0.99) did not return")
	}
}
