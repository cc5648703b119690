package pop3

import (
	"bufio"
	"errors"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"
)

// FuzzSession drives one session over net.Pipe with an arbitrary
// command script. The session must never panic and must terminate;
// every reply must start with +OK or -ERR, or belong to a multi-line
// body that ends in "."; and the maildrop loses exactly the messages
// marked by DELE (and not RSET) when QUIT is processed, and none
// without it.
func FuzzSession(f *testing.F) {
	for _, script := range [][]string{
		{"USER casey", "PASS hunter2", "STAT", "LIST", "LIST 2", "LIST 99", "RETR 1", "QUIT"},
		{"PASS x", "USER casey", "PASS wrong", "STAT", "RETR 1", "USER casey", "PASS hunter2", "STAT"},
		{"USER casey", "PASS hunter2", "DELE 1", "RETR 1", "DELE 1", "RSET", "RETR 1", "DELE 1", "QUIT"},
		{"USER casey", "PASS hunter2", "RETR 2", "XFROB", "NOOP", "DELE 2"},
		{"USER casey", "PASS hunter2", "DELE 2", "RSET", "DELE 1", "QUIT"},
		{"USER casey", "PASS hunter2", "LIST abc", "DELE -1", "RETR zero", "QUIT"},
		{"USER casey", "PASS hunter2", "DELE 3", "QUIT", "DELE 2"},
	} {
		f.Add(strings.Join(script, "\r\n") + "\r\n")
	}
	f.Fuzz(func(t *testing.T, script string) {
		msgs := []string{"Subject: a\r\n\r\nbody-a\r\n", ".leading dot line\r\nnormal\r\n", "two"}
		drop := newMemDrop(msgs...)
		s := &Server{
			Hostname: "mail.diy.example",
			Auth: func(user, pass string) (Maildrop, error) {
				if user != "casey" || pass != "hunter2" {
					return nil, errors.New("bad credentials")
				}
				return drop, nil
			},
		}
		client, server := net.Pipe()
		sessionDone := make(chan struct{})
		go func() {
			defer close(sessionDone)
			s.session(server)
		}()
		writerDone := make(chan struct{})
		go func() {
			defer close(writerDone)
			client.Write([]byte(script)) // fails once the session quits
		}()
		// stop ends the client side and waits for both goroutines; it is
		// safe to call twice.
		stop := func() {
			client.Close()
			<-writerDone
			select {
			case <-sessionDone:
			case <-time.After(5 * time.Second):
				t.Fatal("session did not terminate")
			}
		}
		defer stop()
		client.SetReadDeadline(time.Now().Add(5 * time.Second))
		r := bufio.NewReader(client)

		greeting := readReply(t, r, false)
		if !strings.HasPrefix(greeting, "+OK") {
			t.Fatalf("greeting %q", greeting)
		}
		// Model the session: one reply per complete line, deletions
		// marked by DELE, cleared by RSET, applied at QUIT.
		authed, quit := false, false
		marked := map[int]bool{}
		lines := strings.Split(script, "\n")
		for _, line := range lines[:len(lines)-1] {
			verb, arg := splitVerb(strings.TrimRight(line, "\r\n"))
			multi := (verb == "LIST" && arg == "") || verb == "RETR"
			reply := readReply(t, r, multi)
			replyOK := strings.HasPrefix(reply, "+OK")
			switch verb {
			case "PASS":
				authed = authed || replyOK
			case "DELE":
				if n, err := strconv.Atoi(arg); replyOK && err == nil {
					marked[n] = true
				}
			case "RSET":
				marked = map[int]bool{}
			}
			if verb == "QUIT" {
				quit = true
				break
			}
		}
		if !quit {
			marked = nil
		}
		if len(marked) > 0 && !authed {
			t.Fatalf("DELE accepted before authentication")
		}
		stop()

		for n := 1; n <= len(msgs); n++ {
			_, err := drop.Retr(n)
			if present := err == nil; present == marked[n] {
				t.Fatalf("message %d present=%v with deletions %v applied", n, present, marked)
			}
		}
	})
}

// readReply reads one reply: a single +OK/-ERR status line, followed,
// for a successful multi-line command, by dot-stuffed body lines up to
// the lone "." terminator. It returns the status line.
func readReply(t *testing.T, r *bufio.Reader, multi bool) string {
	t.Helper()
	status := readLine(t, r)
	if !strings.HasPrefix(status, "+OK") && !strings.HasPrefix(status, "-ERR") {
		t.Fatalf("reply %q starts with neither +OK nor -ERR", status)
	}
	if !multi || !strings.HasPrefix(status, "+OK") {
		return status
	}
	for {
		line := readLine(t, r)
		if line == "." {
			return status
		}
		if strings.HasPrefix(line, ".") && !strings.HasPrefix(line, "..") {
			t.Fatalf("body line %q is not dot-stuffed", line)
		}
	}
}

func readLine(t *testing.T, r *bufio.Reader) string {
	t.Helper()
	line, err := r.ReadString('\n')
	if err != nil {
		t.Fatalf("reading reply: %v", err)
	}
	if !strings.HasSuffix(line, "\r\n") {
		t.Fatalf("reply line %q not CRLF-terminated", line)
	}
	return strings.TrimSuffix(line, "\r\n")
}
