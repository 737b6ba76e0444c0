// Package mcf is a determinism-analyzer fixture: its import path ends in
// internal/mcf, so jellyvet treats it as a declared deterministic
// package. Every construct here is labelled with the finding it must (or
// must not) produce.
package mcf

import (
	"math/rand"
	"time"
)

func spread(m map[int]int) int {
	total := 0
	for _, v := range m { // want `range over map`
		total += v
	}
	return total
}

func stamp() time.Time {
	return time.Now() // want `time.Now reads the wall clock`
}

func elapsed(t0 time.Time) time.Duration {
	return time.Since(t0) // want `time.Since reads the wall clock`
}

func draw() int {
	return rand.Intn(10) // want `math/rand.Intn draws from the shared global stream`
}

func spawn(ch chan int) {
	go send(ch) // want `go statement in a deterministic package`
}

func send(ch chan int) { ch <- 1 }

// seeded uses only constructors, which build explicit sources: no finding.
func seeded() *rand.Rand {
	return rand.New(rand.NewSource(1))
}

// sortedSpread ranges over a slice, not a map: no finding.
func sortedSpread(m map[int]int, keys []int) int {
	total := 0
	for _, k := range keys {
		total += m[k]
	}
	return total
}

// allowed carries a reviewed suppression on the line above the range.
func allowed(m map[int]bool) int {
	n := 0
	//jellyvet:allow determinism -- order-insensitive count for fixture coverage
	for range m {
		n++
	}
	return n
}

// wholeFunc demonstrates the function-doc allow scope: the directive in
// this doc comment suppresses every determinism finding in the body.
//
//jellyvet:allow determinism -- whole-function exemption for fixture coverage
func wholeFunc(m map[int]int) time.Time {
	for range m {
		break
	}
	return time.Now()
}
