// Package dobad runs a request plane's calls the slow way: Do formats
// the IAM resource with fmt, and a helper only DoHandler reaches builds
// the span annotations as a map literal and formats the payload size,
// on every call, traced or not. hotpath must flag every site it can
// reach from Do and DoHandler.
package dobad

import "fmt"

// Call is a sketch of one service call.
type Call struct {
	Service, Op   string
	Bucket, Key   string
	TransferBytes int64
}

// Plane is a sketch of one service's request pipeline.
type Plane struct {
	authorize func(resource string) error
	annotate  func(map[string]string)
}

// Do authorizes the call against its resource name.
func (p *Plane) Do(c *Call) error {
	resource := fmt.Sprintf("bucket/%s/%s", c.Bucket, c.Key) // flagged: per-call format
	if err := p.authorize(resource); err != nil {
		return err
	}
	return p.DoHandler(c)
}

// DoHandler annotates the call's span.
func (p *Plane) DoHandler(c *Call) error {
	p.annotate(annotations(c))
	return nil
}

// annotations is reached only through DoHandler, so it runs per call.
func annotations(c *Call) map[string]string {
	return map[string]string{ // flagged: per-call map literal
		"bytes": fmt.Sprint(c.TransferBytes), // flagged: reached from DoHandler
	}
}

// Describe formats off the per-call path; hotpath must stay silent
// here.
func (p *Plane) Describe(c *Call) string {
	return fmt.Sprintf("%s:%s", c.Service, c.Op)
}
