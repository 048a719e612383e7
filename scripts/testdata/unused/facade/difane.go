// Package difane is a facade with one name its example uses and one
// nothing uses.
package difane

// Kept has a user in examples/.
func Kept() int { return 1 }

// Orphan has none.
func Orphan() int { return 2 }
