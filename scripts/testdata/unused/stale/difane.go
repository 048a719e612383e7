// Package difane is a facade whose one name is allowlisted but has
// gained a user.
package difane

// Kept has a user in examples/.
func Kept() int { return 1 }
