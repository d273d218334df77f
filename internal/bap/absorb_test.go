package bap

import (
	"slices"
	"testing"
)

// absorbState snapshots an instance's tree so a test can assert exactly
// which slots one Absorb call touched.
func absorbState(e *EIG) ([]bool, []Value) {
	return slices.Clone(e.set), slices.Clone(e.vals)
}

// TestEIGAbsorbDropsForgedPairs pins Absorb's filter against a Byzantine
// sender that forges node indices, rounds or its own identity: every pair
// below must leave the tree untouched, while the honest controls land on
// exactly the child slot the layout names.
func TestEIGAbsorbDropsForgedPairs(t *testing.T) {
	const n, f = 4, 1
	e, err := NewEIG(0, n, f, "root")
	if err != nil {
		t.Fatal(err)
	}
	lay := e.lay
	l1, _ := lay.level(1)
	leaf, leafEnd := lay.level(f + 1)
	label2 := lay.child[0][2] // the level-1 node whose label is "2"
	for _, c := range []struct {
		name        string
		round, from int
		node        int32
	}{
		{"negative node", 0, 1, -1},
		{"node past the tree", 1, 1, int32(lay.nodes())},
		{"round-1 node in round 0", 0, 1, l1},
		{"root in round 1", 1, 1, 0},
		{"leaf node at the leaf round", f + 1, 1, leaf},
		{"last leaf at the leaf round", f + 1, 1, leafEnd - 1},
		{"label contains the sender", 1, 2, label2},
		{"negative round", -1, 1, 0},
		{"round past the leaves", f + 2, 1, leaf},
		{"huge round", 1 << 30, 1, 0},
		{"negative sender", 0, -1, 0},
		{"sender past n", 0, n, 0},
	} {
		set, vals := absorbState(e)
		e.Absorb(c.round, c.from, []Pair{{Node: c.node, Val: "forged"}})
		if !slices.Equal(set, e.set) || !slices.Equal(vals, e.vals) {
			t.Fatalf("%s: Absorb(round=%d, from=%d, node=%d) changed the tree", c.name, c.round, c.from, c.node)
		}
	}

	// Honest controls: the root relayed by 1 in round 0 becomes node "1";
	// node "2" relayed by 3 in round 1 becomes node "2,3".
	e.Absorb(0, 1, []Pair{{Node: 0, Val: "one"}})
	if c := lay.child[0][1]; !e.set[c] || e.vals[c] != "one" {
		t.Fatalf("round-0 pair from 1 did not land on node %d", c)
	}
	e.Absorb(1, 3, []Pair{{Node: label2, Val: "two-three"}})
	if c := lay.child[label2][3]; !e.set[c] || e.vals[c] != "two-three" {
		t.Fatalf("round-1 pair from 3 did not land on node %d", c)
	}
	// First writer wins.
	e.Absorb(0, 1, []Pair{{Node: 0, Val: "again"}})
	if c := lay.child[0][1]; e.vals[c] != "one" {
		t.Fatalf("second write to node %d overwrote the first: %q", c, e.vals[c])
	}
}

// TestEIGLayoutContains cross-checks the index-only containment test
// against the label paths it stands for, rebuilt by walking parents.
func TestEIGLayoutContains(t *testing.T) {
	for _, c := range []struct{ n, f int }{{4, 1}, {7, 2}, {10, 1}} {
		lay := layoutFor(c.n, c.f)
		if lay.nodes() != TreeNodes(c.n, c.f) {
			t.Fatalf("n=%d f=%d: layout has %d nodes, TreeNodes says %d", c.n, c.f, lay.nodes(), TreeNodes(c.n, c.f))
		}
		for i := int32(0); i < int32(lay.nodes()); i++ {
			path := map[int]bool{}
			for x := i; lay.parent[x] >= 0; x = lay.parent[x] {
				for j, ch := range lay.child[lay.parent[x]] {
					if ch == x {
						path[j] = true
					}
				}
			}
			for j := 0; j < c.n; j++ {
				if lay.contains(i, j) != path[j] {
					t.Fatalf("n=%d f=%d: contains(%d, %d) = %v, label path %v", c.n, c.f, i, j, !path[j], path)
				}
			}
		}
	}
}

// FuzzEIGAbsorb feeds Absorb arbitrary (round, from, node, value)
// sequences, five bytes per pair, at n=4/f=1 or n=7/f=2 (first byte). No
// input may panic, and each call may set at most the one child slot the
// layout names for an in-range (round, from, node), and only if that slot
// was empty. The instance must still resolve afterwards.
func FuzzEIGAbsorb(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 'a'})
	f.Add([]byte{1, 1, 2, 3, 0, 'b', 2, 5, 40, 0, 'c'})
	f.Add([]byte{0, 255, 255, 255, 255, 'x', 3, 1, 17, 0, 'y'})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n, fy := 4, 1
		if data[0]&1 == 1 {
			n, fy = 7, 2
		}
		e, err := NewEIG(0, n, fy, "init")
		if err != nil {
			t.Fatal(err)
		}
		lay := e.lay
		for data = data[1:]; len(data) >= 5; data = data[5:] {
			round, from := int(int8(data[0])), int(int8(data[1]))
			node := int32(int16(uint16(data[2]) | uint16(data[3])<<8))
			val := Value([]byte{data[4]})

			want := int32(-1) // the only slot this call may set
			if from >= 0 && from < n && round >= 0 && round <= fy+1 {
				if start, end := lay.level(round); node >= start && node < end {
					if c := lay.child[node][from]; c >= 0 && !e.set[c] {
						want = c
					}
				}
			}
			set, vals := absorbState(e)
			e.Absorb(round, from, []Pair{{Node: node, Val: val}})
			if want >= 0 {
				if !e.set[want] || e.vals[want] != val {
					t.Fatalf("Absorb(%d, %d, node %d) did not set slot %d", round, from, node, want)
				}
				set[want], vals[want] = true, val
			}
			if !slices.Equal(set, e.set) || !slices.Equal(vals, e.vals) {
				t.Fatalf("Absorb(%d, %d, node %d) touched a slot other than %d", round, from, node, want)
			}
		}
		for i := 0; i < Rounds(fy); i++ {
			e.EndRound()
		}
		if _, err := e.Decision(); err != nil {
			t.Fatal(err)
		}
	})
}
