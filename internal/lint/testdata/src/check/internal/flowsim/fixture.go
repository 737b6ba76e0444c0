// Package flowsim is a faultconfine-analyzer fixture: its import path
// ends in internal/flowsim, a declared deterministic package, so every
// faultinject call here must sit behind the Enabled() guard. Labelled
// cases cover the unguarded violation, the guarded negative control,
// the hotpath rule, and a reviewed suppression.
package flowsim

import "check/internal/faultinject"

// unguarded calls in a deterministic package are the core violation.
func unguarded() error {
	if _, ok := faultinject.Hit("flowsim.round"); ok { // want `faultinject.Hit outside an .if faultinject.Enabled\(\). guard`
		return nil
	}
	return faultinject.Fire("flowsim.round") // want `faultinject.Fire outside an .if faultinject.Enabled\(\). guard`
}

// guarded is the blessed shape: no finding.
func guarded() error {
	if faultinject.Enabled() {
		if err := faultinject.Fire("flowsim.round"); err != nil {
			return err
		}
	}
	return nil
}

// guardedCompound keeps the guard as one conjunct: still guarded.
func guardedCompound(active bool) error {
	if active && faultinject.Enabled() {
		return faultinject.Fire("flowsim.round")
	}
	return nil
}

// enabledAlone polls only the guard itself: always admissible.
func enabledAlone() bool {
	return faultinject.Enabled()
}

// wrongGuard nests the call under an unrelated condition: the Enabled()
// result feeding a variable does not count — the analyzer wants the
// lexical guard, which is what the branch predictor and the reviewer
// both see.
func wrongGuard(active bool) error {
	on := faultinject.Enabled()
	if on && active {
		return faultinject.Fire("flowsim.round") // want `faultinject.Fire outside an .if faultinject.Enabled\(\). guard`
	}
	return nil
}

// allowed carries a reviewed suppression.
func allowed() error {
	//jellyvet:allow faultconfine -- fixture coverage for the suppression path
	return faultinject.Fire("flowsim.round")
}

// hotLoop is a //jellyvet:hotpath function: the rule applies here even
// though the enclosing package check would already catch it; the
// hotpath range check is what extends the rule outside deterministic
// packages.
//
//jellyvet:hotpath
func hotLoop(n int) error {
	for i := 0; i < n; i++ {
		if err := faultinject.Fire("flowsim.pop"); err != nil { // want `faultinject.Fire outside an .if faultinject.Enabled\(\). guard`
			return err
		}
	}
	return nil
}
