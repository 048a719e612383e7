package main

import "difane"

func main() { println(difane.Kept()) }
