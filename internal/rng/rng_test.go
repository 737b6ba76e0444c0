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
