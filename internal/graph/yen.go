package graph

// A Path is a loopless vertex sequence from Path[0] to Path[len-1].
type Path []int

// Equal reports whether two paths visit the same vertex sequence.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

func samePrefix(p Path, root Path) bool {
	if len(p) < len(root) {
		return false
	}
	for i := range root {
		if p[i] != root[i] {
			return false
		}
	}
	return true
}

func containsPath(ps []Path, q Path) bool {
	for _, p := range ps {
		if p.Equal(q) {
			return true
		}
	}
	return false
}

func lessPath(a, b Path) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
