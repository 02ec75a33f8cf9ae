package chunk

import "testing"

// TestCarveOwnership: every carved slice is zeroed and capacity-limited,
// an empty carve is nil, and writing through slices carved later, across
// several chunk turnovers and mixed sizes, never reaches an earlier one.
func TestCarveOwnership(t *testing.T) {
	var c Of[int]
	if s := c.Carve(0); s != nil {
		t.Fatalf("Carve(0) = %v, want nil", s)
	}
	var kept [][]int
	for i := range 5 * Carves {
		n := 1 + i%3
		s := c.Carve(n)
		if len(s) != n || cap(s) != n {
			t.Fatalf("carve %d: len %d cap %d, want both %d", i, len(s), cap(s), n)
		}
		for j := range s {
			if s[j] != 0 {
				t.Fatalf("carve %d is not zeroed: %v", i, s)
			}
			s[j] = i
		}
		kept = append(kept, s)
	}
	for i, s := range kept {
		for _, x := range s {
			if x != i {
				t.Fatalf("carve %d was rewritten: %v", i, s)
			}
		}
	}
}
