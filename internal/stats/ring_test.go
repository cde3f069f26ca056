package stats

import (
	"reflect"
	"testing"
)

func TestRing(t *testing.T) {
	for _, tc := range []struct {
		name        string
		capacity    int
		adds        int // values 1..adds are added in order
		want        []int
		wantDropped uint64
	}{
		{"empty", 4, 0, []int{}, 0},
		{"partial", 4, 3, []int{1, 2, 3}, 0},
		{"exactly full", 4, 4, []int{1, 2, 3, 4}, 0},
		{"wrapped once", 4, 5, []int{2, 3, 4, 5}, 1},
		{"wrapped to boundary", 4, 8, []int{5, 6, 7, 8}, 4},
		{"wrapped many times", 3, 11, []int{9, 10, 11}, 8},
		{"capacity one", 1, 3, []int{3}, 2},
		{"zero capacity", 0, 3, []int{}, 3},
		{"negative capacity", -2, 2, []int{}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRing[int](tc.capacity)
			for i := 1; i <= tc.adds; i++ {
				r.Add(i)
			}
			got := r.Items()
			if got == nil {
				t.Fatal("Items returned nil, want a non-nil slice")
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("Items = %v, want %v (oldest first)", got, tc.want)
			}
			if r.Len() != len(tc.want) {
				t.Errorf("Len = %d, want %d", r.Len(), len(tc.want))
			}
			if r.Dropped() != tc.wantDropped {
				t.Errorf("Dropped = %d, want %d", r.Dropped(), tc.wantDropped)
			}
		})
	}
}

// TestRingItemsIsACopy pins that callers may keep Items' result while the
// ring keeps rotating underneath.
func TestRingItemsIsACopy(t *testing.T) {
	r := NewRing[int](2)
	r.Add(1)
	r.Add(2)
	snap := r.Items()
	r.Add(3)
	if !reflect.DeepEqual(snap, []int{1, 2}) {
		t.Errorf("snapshot changed under later Add: %v", snap)
	}
}

func TestRingAddDoesNotAllocate(t *testing.T) {
	r := NewRing[[2]float64](8)
	if n := testing.AllocsPerRun(100, func() { r.Add([2]float64{1, 2}) }); n != 0 {
		t.Errorf("Add allocates %.1f times per call, want 0", n)
	}
}
