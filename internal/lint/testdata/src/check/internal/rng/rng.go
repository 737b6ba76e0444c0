// Package rng is a stub of the real internal/rng with the same Split
// API: the rngstream analyzer matches the method set by import-path
// suffix, so fixtures in check/rnguse exercise it without importing the
// jellyfish module.
package rng

type Source struct{ seed uint64 }

func (s *Source) Split(label string) *Source {
	return &Source{seed: s.seed + uint64(len(label))}
}

func (s *Source) SplitN(label string, i int) *Source {
	return &Source{seed: s.seed + uint64(len(label)) + uint64(i)}
}
