// Package a declares a knob that only a same-named field of package b's
// config is set under.
package a

// Config has a Knob nobody turns.
type Config struct {
	Knob int
}
