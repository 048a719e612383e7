// Package b declares a knob of the same name that a user turns.
package b

// Config has a Knob examples/ turns.
type Config struct {
	Knob int
}
