// Package deaduse is the production caller of the deadexport fixture.
package deaduse

import "check/internal/dead"

func Use() int {
	var n dead.Namer = dead.Widget{}
	_ = dead.Plain{}
	return len(n.Name()) + dead.Shared() + dead.Limit
}
