package iam

import (
	"strings"
	"testing"
)

// FuzzMatch checks the pattern matcher never panics, holds its basic
// laws ("*" matches everything; a literal matches itself), and agrees
// with splitMatch, the strings.Split matcher it replaced, on both forms
// of the value: an action string and a joined []byte resource name.
func FuzzMatch(f *testing.F) {
	f.Add("kms:*", "kms:Decrypt")
	f.Add("bucket/*/audit", "bucket/a/audit")
	f.Add("", "")
	f.Add("***", "x")
	f.Add("a*a", "a")
	f.Add("*ab*b", "abb")
	f.Add("b*/*/x*", "bucket/alice-chat/x")
	f.Fuzz(func(t *testing.T, pattern, value string) {
		want := splitMatch(pattern, value)
		if got := match(pattern, value); got != want {
			t.Fatalf("match(%q, %q) = %v, split matcher says %v", pattern, value, got, want)
		}
		if got := match(pattern, []byte(value)); got != want {
			t.Fatalf("match(%q, []byte(%q)) = %v, split matcher says %v", pattern, value, got, want)
		}
		if !match("*", value) {
			t.Fatalf("* failed to match %q", value)
		}
		if !strings.Contains(value, "*") && !match(value, value) {
			t.Fatalf("literal %q failed to match itself", value)
		}
	})
}

// splitMatch is match as it was written first, splitting the pattern
// at every '*': the reference FuzzMatch holds the in-place walk to.
func splitMatch(pattern, value string) bool {
	if pattern == "*" {
		return true
	}
	if !strings.Contains(pattern, "*") {
		return pattern == value
	}
	parts := strings.Split(pattern, "*")
	if !strings.HasPrefix(value, parts[0]) {
		return false
	}
	value = value[len(parts[0]):]
	for _, seg := range parts[1 : len(parts)-1] {
		idx := strings.Index(value, seg)
		if idx < 0 {
			return false
		}
		value = value[idx+len(seg):]
	}
	return strings.HasSuffix(value, parts[len(parts)-1])
}
