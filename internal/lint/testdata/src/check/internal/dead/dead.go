// Package dead is the deadexport fixture: its import path has an
// internal element, so each export here needs a reference from some
// non-test file in the module. check/deaduse is that production caller.
package dead

func Unused() {} // want `exported Unused has no non-test reference`

// TestOnly is called only from dead_test.go, which the loader never
// parses: a test reference does not count.
func TestOnly() int { return 1 } // want `exported TestOnly has no non-test reference`

// Shared and Limit are used from check/deaduse: no finding.
func Shared() int { return 2 }

const Limit = 3

// Namer is the interface check/deaduse boxes a Widget into.
type Namer interface{ Name() string }

// Widget reaches Name through Namer and String through fmt.Stringer,
// neither named at a call: no finding for either. Size is dead.
type Widget struct{}

func (Widget) Name() string   { return "widget" }
func (Widget) String() string { return "widget" }
func (Widget) Size() int      { return 0 } // want `exported Widget.Size has no non-test reference`

// Plain has Namer's method set but never enters an interface, so its
// Name is not reached.
type Plain struct{}

func (Plain) Name() string { return "plain" } // want `exported Plain.Name has no non-test reference`

// unexported identifiers are not candidates.
func unused() {}

//jellyvet:allow deadexport -- fixture coverage for the suppression path
func External() {}
