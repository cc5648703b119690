// Package iam implements the identity and access layer the simulated
// KMS, S3 and SQS services use to authenticate callers. DIY's privacy
// argument hinges on this: the key management service releases a data
// key only to the specific function role the user installed, so the
// policy evaluator is part of the trusted computing base.
//
// The model follows AWS IAM's shape: principals assume roles; roles
// carry policies; a policy is a list of statements allowing or denying
// actions on resources, with '*' wildcards. An explicit Deny always
// wins; absent any matching Allow, the request is denied.
package iam

import (
	"errors"
	"fmt"
	"strings"
	"sync"
)

// Effect is a statement's disposition.
type Effect string

// Statement effects.
const (
	Allow Effect = "Allow"
	Deny  Effect = "Deny"
)

// Statement grants or denies a set of actions on a set of resources.
// Actions look like "kms:Decrypt"; resources are ARN-ish strings such
// as "key/alice-chat" or "bucket/alice-mail/*".
type Statement struct {
	Effect    Effect
	Actions   []string
	Resources []string
}

// Policy is an ordered list of statements.
type Policy struct {
	Name       string
	Statements []Statement
}

// Role is an assumable identity carrying policies.
type Role struct {
	Name     string
	Policies []Policy
}

// ErrDenied is returned when policy evaluation denies a request.
var ErrDenied = errors.New("iam: access denied")

// Service stores roles and evaluates access. It is safe for concurrent
// use.
type Service struct {
	mu    sync.RWMutex
	roles map[string]*Role
}

// New returns an empty IAM service.
func New() *Service {
	return &Service{roles: make(map[string]*Role)}
}

// PutRole creates or replaces a role.
func (s *Service) PutRole(r *Role) error {
	if r == nil || r.Name == "" {
		return errors.New("iam: role must have a name")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := *r
	s.roles[r.Name] = &cp
	return nil
}

// DeleteRole removes a role. Deleting an absent role is a no-op.
func (s *Service) DeleteRole(name string) {
	s.mu.Lock()
	delete(s.roles, name)
	s.mu.Unlock()
}

// Role returns a role by name.
func (s *Service) Role(name string) (*Role, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.roles[name]
	return r, ok
}

// Resource is an IAM resource name held as up to four parts whose
// concatenation is the name, so a caller can name an object as
// Resource{"bucket/", bucket, "/", key} without building the string.
type Resource [4]string

// Authorize evaluates whether the principal (a role name) may perform
// action on resource r. It returns nil if allowed and an error wrapping
// ErrDenied otherwise. The resource name is joined in a stack buffer
// and copied into a string only to build a denial's error, so an
// allowed request allocates nothing.
func (s *Service) Authorize(principal, action string, r Resource) error {
	var buf [128]byte
	resource := append(append(append(append(buf[:0], r[0]...), r[1]...), r[2]...), r[3]...)
	s.mu.RLock()
	role, ok := s.roles[principal]
	s.mu.RUnlock()
	if !ok {
		return fmt.Errorf("iam: unknown principal %q performing %s on %s: %w",
			principal, action, string(resource), ErrDenied)
	}
	allowed := false
	for _, p := range role.Policies {
		for _, st := range p.Statements {
			if !matchAny(st.Actions, action) || !matchAny(st.Resources, resource) {
				continue
			}
			if st.Effect == Deny {
				return fmt.Errorf("iam: %q explicitly denied %s on %s by policy %q: %w",
					principal, action, string(resource), p.Name, ErrDenied)
			}
			allowed = true
		}
	}
	if !allowed {
		return fmt.Errorf("iam: %q has no policy allowing %s on %s: %w",
			principal, action, string(resource), ErrDenied)
	}
	return nil
}

// matchAny reports whether any pattern matches the value.
func matchAny[V string | []byte](patterns []string, value V) bool {
	for _, p := range patterns {
		if match(p, value) {
			return true
		}
	}
	return false
}

// match reports whether an IAM-style pattern matches a value, an
// action string or a joined resource name. '*' matches any run of
// characters (including '/'); all other characters match literally.
// The empty pattern matches only the empty value.
//
// It walks the pattern's '*'-separated segments in place, so it
// allocates nothing: the first segment must prefix the value, each
// middle one must follow at its leftmost position, and the last must
// end it.
func match[V string | []byte](pattern string, value V) bool {
	if pattern == "*" {
		return true
	}
	star := strings.IndexByte(pattern, '*')
	if star < 0 {
		return string(value) == pattern
	}
	if len(value) < star || string(value[:star]) != pattern[:star] {
		return false
	}
	value, pattern = value[star:], pattern[star+1:]
	for {
		star = strings.IndexByte(pattern, '*')
		if star < 0 {
			return len(value) >= len(pattern) && string(value[len(value)-len(pattern):]) == pattern
		}
		i := index(value, pattern[:star])
		if i < 0 {
			return false
		}
		value, pattern = value[i+star:], pattern[star+1:]
	}
}

// index is the leftmost position of sub in value, or -1.
func index[V string | []byte](value V, sub string) int {
	for i := 0; i+len(sub) <= len(value); i++ {
		if string(value[i:i+len(sub)]) == sub {
			return i
		}
	}
	return -1
}

// AllowStatement is a convenience constructor for an Allow statement.
func AllowStatement(actions, resources []string) Statement {
	return Statement{Effect: Allow, Actions: actions, Resources: resources}
}

// DenyStatement is a convenience constructor for a Deny statement.
func DenyStatement(actions, resources []string) Statement {
	return Statement{Effect: Deny, Actions: actions, Resources: resources}
}
