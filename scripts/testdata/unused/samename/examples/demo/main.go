package main

import "difane/internal/b"

func main() { println(b.Config{Knob: 1}.Knob) }
