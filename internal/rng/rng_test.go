package rng

import "testing"

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Intn(1000) != b.Intn(1000) {
			t.Fatal("same seed diverged")
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := true
	for i := 0; i < 20; i++ {
		if a.Intn(1<<30) != b.Intn(1<<30) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestSplitIndependentOfConsumption(t *testing.T) {
	a := New(7)
	a.Intn(100) // consume some of the parent stream
	s1 := a.Split("topology")
	b := New(7)
	s2 := b.Split("topology")
	for i := 0; i < 50; i++ {
		if s1.Intn(1000) != s2.Intn(1000) {
			t.Fatal("Split depends on parent consumption")
		}
	}
}

func TestSplitLabelsDiffer(t *testing.T) {
	a := New(7)
	s1, s2 := a.Split("x"), a.Split("y")
	same := true
	for i := 0; i < 20; i++ {
		if s1.Intn(1<<30) != s2.Intn(1<<30) {
			same = false
		}
	}
	if same {
		t.Fatal("different labels produced identical streams")
	}
}

func TestSplitNDiffers(t *testing.T) {
	a := New(7)
	s0, s1 := a.SplitN("trial", 0), a.SplitN("trial", 1)
	same := true
	for i := 0; i < 20; i++ {
		if s0.Intn(1<<30) != s1.Intn(1<<30) {
			same = false
		}
	}
	if same {
		t.Fatal("different trial indices produced identical streams")
	}
}

func TestPermIsPermutation(t *testing.T) {
	p := New(3).Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

// Split and SplitN streams, pinned: every figure's random inputs derive
// from a root seed through these two functions, so a change to how they
// compute a child seed re-draws every figure. Each case pins the first
// draw of Split(label) and of SplitN(label, i); the chain case pins a
// derivation path table1 uses.
func TestSplitStreamsGolden(t *testing.T) {
	cases := []struct {
		seed          uint64
		label         string
		i             int
		split, splitN int64
	}{
		{0, "", 0, 7715237779295430263, 4108021974784603161},
		{1, "table1", 0, 7252523299813828464, 5355794030100829810},
		{1, "TCP1", 4, 6600499043737995166, 885613751462952721},
		{1, "MPTCP8", 2, 377325629520625000, 4856290353753653283},
		{42, "trial", 1, 4828282114875213261, 909685063555344718},
		{42, "routes", 9, 8292164909155770124, 8848662914595102635},
		{7, "k14", 1000, 1427637596672737826, 4373486079125586877},
		{1<<64 - 1, "ablation-pkt", 3, 2215525571301553294, 7733962535161906733},
	}
	for _, c := range cases {
		if got := New(c.seed).Split(c.label).Int63(); got != c.split {
			t.Errorf("New(%d).Split(%q): first draw %d, want %d", c.seed, c.label, got, c.split)
		}
		if got := New(c.seed).SplitN(c.label, c.i).Int63(); got != c.splitN {
			t.Errorf("New(%d).SplitN(%q, %d): first draw %d, want %d", c.seed, c.label, c.i, got, c.splitN)
		}
	}
	s := New(1).Split("table1").SplitN("MPTCP8", 4).Split("jfk")
	for _, want := range []int64{1094914192878145170, 3813665513914088241, 8081243497187297045} {
		if got := s.Int63(); got != want {
			t.Fatalf("table1/MPTCP8#4/jfk draw %d, want %d", got, want)
		}
	}
}
