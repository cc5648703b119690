package iam

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func newTestService(t *testing.T) *Service {
	t.Helper()
	s := New()
	err := s.PutRole(&Role{
		Name: "chat-fn",
		Policies: []Policy{{
			Name: "chat-least-privilege",
			Statements: []Statement{
				AllowStatement(
					[]string{"kms:Decrypt", "kms:GenerateDataKey"},
					[]string{"key/alice-chat"},
				),
				AllowStatement(
					[]string{"s3:*"},
					[]string{"bucket/alice-chat/*"},
				),
				DenyStatement(
					[]string{"s3:DeleteObject"},
					[]string{"bucket/alice-chat/audit/*"},
				),
			},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestAuthorizeAllow(t *testing.T) {
	s := newTestService(t)
	if err := s.Authorize("chat-fn", "kms:Decrypt", Resource{"key/alice-chat"}); err != nil {
		t.Fatalf("expected allow, got %v", err)
	}
	if err := s.Authorize("chat-fn", "s3:GetObject", Resource{"bucket/alice-chat/room/1"}); err != nil {
		t.Fatalf("wildcard action/resource should allow, got %v", err)
	}
}

// An allowed request allocates nothing: patterns are matched in place
// and the error is built only on deny.
func TestAuthorizeAllowAllocs(t *testing.T) {
	s := newTestService(t)
	for _, c := range []struct{ action, resource string }{
		{"kms:Decrypt", "key/alice-chat"},
		{"s3:GetObject", "bucket/alice-chat/room/1"},
	} {
		got := testing.AllocsPerRun(100, func() {
			if err := s.Authorize("chat-fn", c.action, Resource{c.resource}); err != nil {
				t.Fatal(err)
			}
		})
		if got != 0 {
			t.Errorf("allowed %s on %s: %v allocs, want exactly 0", c.action, c.resource, got)
		}
	}
}

// A resource in parts is decided, and its denials worded, exactly as
// the same name in one part, and an allowed request allocates nothing;
// a name past the 128-byte stack buffer costs one buffer.
func TestAuthorizeResourceParts(t *testing.T) {
	s := newTestService(t)
	long := strings.Repeat("k", 200)
	for _, c := range []struct {
		principal, action string
		r                 Resource
	}{
		{"chat-fn", "kms:Decrypt", Resource{"key/", "alice-chat"}},
		{"chat-fn", "s3:GetObject", Resource{"bucket/", "alice-chat", "/", "room/1"}},
		{"chat-fn", "s3:GetObject", Resource{"bucket/", "alice-chat", "/", long}},
		{"chat-fn", "s3:GetObject", Resource{"bucket/", "bob-chat", "/", "room/1"}},
		{"chat-fn", "s3:DeleteObject", Resource{"bucket/", "alice-chat", "/", "audit/log1"}},
		{"nobody", "kms:Decrypt", Resource{"key/", "alice-chat"}},
	} {
		name := strings.Join(c.r[:], "")
		got, want := s.Authorize(c.principal, c.action, c.r), s.Authorize(c.principal, c.action, Resource{name})
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s %s on %q: in parts %v, in one part %v", c.principal, c.action, name, got, want)
		}
		if want != nil {
			continue
		}
		wantAllocs := 0.0
		if len(name) > 128 {
			wantAllocs = 1
		}
		if n := testing.AllocsPerRun(100, func() {
			if err := s.Authorize(c.principal, c.action, c.r); err != nil {
				t.Fatal(err)
			}
		}); n != wantAllocs {
			t.Errorf("allowed %s on %q: %v allocs, want exactly %v", c.action, name, n, wantAllocs)
		}
	}
}

func TestAuthorizeDenyUnknownPrincipal(t *testing.T) {
	s := newTestService(t)
	err := s.Authorize("nobody", "kms:Decrypt", Resource{"key/alice-chat"})
	if !errors.Is(err, ErrDenied) {
		t.Fatalf("unknown principal: got %v, want ErrDenied", err)
	}
}

func TestAuthorizeDenyForeignResource(t *testing.T) {
	// The crux of DIY least privilege: the chat function must NOT be
	// able to touch another user's key or bucket.
	s := newTestService(t)
	if err := s.Authorize("chat-fn", "kms:Decrypt", Resource{"key/bob-chat"}); !errors.Is(err, ErrDenied) {
		t.Fatalf("foreign key access: got %v, want ErrDenied", err)
	}
	if err := s.Authorize("chat-fn", "s3:GetObject", Resource{"bucket/bob-chat/room/1"}); !errors.Is(err, ErrDenied) {
		t.Fatalf("foreign bucket access: got %v, want ErrDenied", err)
	}
}

func TestExplicitDenyWins(t *testing.T) {
	s := newTestService(t)
	// s3:* allows DeleteObject on the bucket, but the audit prefix has
	// an explicit Deny, which must win.
	err := s.Authorize("chat-fn", "s3:DeleteObject", Resource{"bucket/alice-chat/audit/log1"})
	if !errors.Is(err, ErrDenied) {
		t.Fatalf("explicit deny did not win: %v", err)
	}
	if err := s.Authorize("chat-fn", "s3:DeleteObject", Resource{"bucket/alice-chat/room/1"}); err != nil {
		t.Fatalf("delete outside denied prefix should be allowed: %v", err)
	}
}

func TestDenyErrorIsDescriptive(t *testing.T) {
	s := newTestService(t)
	err := s.Authorize("chat-fn", "kms:Decrypt", Resource{"key/bob-chat"})
	if err == nil || !strings.Contains(err.Error(), "chat-fn") || !strings.Contains(err.Error(), "kms:Decrypt") {
		t.Fatalf("denial error not descriptive: %v", err)
	}
}

func TestPutRoleValidation(t *testing.T) {
	s := New()
	if err := s.PutRole(nil); err == nil {
		t.Fatal("nil role accepted")
	}
	if err := s.PutRole(&Role{}); err == nil {
		t.Fatal("unnamed role accepted")
	}
}

func TestDeleteRole(t *testing.T) {
	s := newTestService(t)
	s.DeleteRole("chat-fn")
	if _, ok := s.Role("chat-fn"); ok {
		t.Fatal("role survived deletion")
	}
	if err := s.Authorize("chat-fn", "kms:Decrypt", Resource{"key/alice-chat"}); !errors.Is(err, ErrDenied) {
		t.Fatal("deleted role still authorized")
	}
	s.DeleteRole("chat-fn") // idempotent
}

func TestRolesCount(t *testing.T) {
	s := newTestService(t)
	if s.Roles() != 1 {
		t.Fatalf("Roles() = %d, want 1", s.Roles())
	}
}

func TestMatch(t *testing.T) {
	tests := []struct {
		pattern, value string
		want           bool
	}{
		{"*", "anything", true},
		{"*", "", true},
		{"kms:Decrypt", "kms:Decrypt", true},
		{"kms:Decrypt", "kms:Encrypt", false},
		{"kms:*", "kms:Decrypt", true},
		{"kms:*", "s3:GetObject", false},
		{"bucket/a/*", "bucket/a/x/y", true},
		{"bucket/a/*", "bucket/b/x", false},
		{"bucket/*/audit", "bucket/a/audit", true},
		{"bucket/*/audit", "bucket/a/audit/x", false},
		{"*suffix", "has-suffix", true},
		{"*suffix", "suffix-not", false},
		{"a*b*c", "aXbYc", true},
		{"a*b*c", "abc", true},
		{"a*b*c", "acb", false},
		{"", "", true},
		{"", "x", false},
	}
	for _, tt := range tests {
		if got := match(tt.pattern, tt.value); got != tt.want {
			t.Errorf("match(%q, %q) = %v, want %v", tt.pattern, tt.value, got, tt.want)
		}
	}
}

func TestMatchLiteralProperty(t *testing.T) {
	// Property: a pattern without '*' matches exactly itself.
	f := func(s string) bool {
		if strings.Contains(s, "*") {
			return true // skip
		}
		return match(s, s) && (s == "" || !match(s, s+"x"))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMatchPrefixWildcardProperty(t *testing.T) {
	// Property: "p*" matches p + any suffix.
	f := func(p, suffix string) bool {
		if strings.Contains(p, "*") || strings.Contains(suffix, "*") {
			return true
		}
		return match(p+"*", p+suffix)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAuthorize(t *testing.T) {
	s := newTestService(t)
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 500; j++ {
				s.Authorize("chat-fn", "kms:Decrypt", Resource{"key/alice-chat"})
				s.PutRole(&Role{Name: "scratch"})
				s.Role("scratch")
			}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
}
