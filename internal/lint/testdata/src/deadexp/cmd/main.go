// Command cmd is a main package: nothing can import it, so its exports are
// not checked.
package main

// Exported is never called.
func Exported() {}

func main() {}
