// Package testonlybad exports functions no loaded package references —
// the shapes only a test would call; testonly must flag every one.
package testonlybad

// Box is a container whose exported accessors nobody calls.
type Box struct{ items []string }

// Peek is a method no loaded code calls.
func (b *Box) Peek() string { return b.items[0] }

// Size is a value-receiver method no loaded code calls.
func (b Box) Size() int { return len(b.items) }

// Orphan is a function no loaded code calls.
func Orphan() int { return 1 }

// Countdown only calls itself; recursion is not a reference.
func Countdown(n int) int {
	if n == 0 {
		return 0
	}
	return Countdown(n - 1)
}

// helper is unexported: testonly only guards the exported surface.
func helper() int { return 2 }

// Sink implements io.Writer, but no loaded code converts a Sink to an
// interface with a Write method or calls Write through one: handing it
// to an empty interface reaches no method.
type Sink struct{}

// Write is never reachable through any conversion.
func (Sink) Write(p []byte) (int, error) { return len(p), nil }

var anySink any = Sink{}
