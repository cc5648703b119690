// Email runs the DIY mail service end to end over the standard
// SMTP/POP3 pair, each on a real TCP port: mail submitted with Go's
// net/smtp client flows through the RFC 5321 engine into the same
// encrypt-and-store handler the SES hook uses, gets spam-scored, and
// lands sealed in the user's bucket. The client lists and fetches it
// over the HTTPS tunnel, then a POP3 bridge on the user's own device
// serves the same mailbox to a mail client speaking RFC 1939; the
// program exits non-zero unless both paths return the same messages.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"log"
	"net"
	netsmtp "net/smtp"
	"slices"
	"strings"
	"time"

	diy "repro"
	"repro/internal/apps/email"
	"repro/internal/cloudsim/sim"
	"repro/internal/crypto/envelope"
	"repro/internal/proto/pop3"
	"repro/internal/proto/smtp"
)

func main() {
	log.SetFlags(0)

	cloud, err := diy.NewCloud(diy.CloudOptions{})
	if err != nil {
		log.Fatal(err)
	}
	mailbox, err := diy.Install(cloud, "casey", diy.EmailApp{SpamFilter: diy.NewSpamFilter()})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("installed mailbox casey@%s\n", email.MailDomain)

	// A real SMTP endpoint (what §8.3 asks serverless platforms to
	// support natively): deliveries bridge into the SES trigger.
	server := &smtp.Server{
		Hostname: email.MailDomain,
		Handler: func(from string, to []string, data []byte) error {
			for _, rcpt := range to {
				ctx := &sim.Context{App: "email", Cursor: sim.NewCursor(cloud.Clock.Now())}
				if err := cloud.SES.Deliver(ctx, from, rcpt, data); err != nil {
					return err
				}
			}
			return nil
		},
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go server.Serve(ln)
	defer server.Close()
	fmt.Printf("SMTP listening on %s\n", ln.Addr())

	// Deliver two messages over the wire with the stdlib client.
	send := func(from, subject, body string) {
		msg := fmt.Sprintf("From: %s\r\nTo: casey@%s\r\nSubject: %s\r\n\r\n%s\r\n",
			from, email.MailDomain, subject, body)
		err := netsmtp.SendMail(ln.Addr().String(), nil, from,
			[]string{"casey@" + email.MailDomain}, []byte(msg))
		if err != nil {
			log.Fatalf("SMTP send: %v", err)
		}
	}
	send("friend@remote.net", "dinner friday?", "new thai place on university ave")
	send("winner999999@lottery.biz", "CONGRATULATIONS WINNER",
		"You won!!! Claim your FREE prize of $1,000,000 now. Act now! Wire transfer of $500,000 dollars awaits.")

	// List the mailbox through the HTTPS endpoint.
	resp, _, err := mailbox.Invoke(mailbox.ClientContext(), "list", nil)
	if err != nil {
		log.Fatal(err)
	}
	var entries []email.IndexEntry
	if err := json.Unmarshal(resp.Body, &entries); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nmailbox index:")
	for _, e := range entries {
		tag := ""
		if e.Spam {
			tag = fmt.Sprintf("  [SPAM %.1f: %v]", e.Score, e.Rules)
		}
		fmt.Printf("  #%d %-24s %q%s\n", e.ID, e.From, e.Subject, tag)
	}

	// Fetch both messages over HTTPS.
	fetched := make(map[int]string)
	for _, e := range entries {
		resp, _, err = mailbox.Invoke(mailbox.ClientContext(), "fetch", []byte(fmt.Sprintf("%d", e.ID)))
		if err != nil || resp.Status != 200 {
			log.Fatalf("fetch #%d: %v (status %d)", e.ID, err, resp.Status)
		}
		fetched[e.ID] = string(resp.Body)
	}
	fmt.Printf("\nfetched message #%d (%d bytes)\n", entries[0].ID, len(fetched[entries[0].ID]))

	// Show that the provider stores only ciphertext.
	admin := &sim.Context{Principal: mailbox.Role}
	obj, err := cloud.S3.Get(admin, mailbox.Bucket, "mail/000001")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("at rest: mail/000001 is %d bytes of sealed ciphertext (sealed=%v)\n",
		len(obj.Data), envelope.IsSealed(obj.Data))

	// The POP3 bridge: a mail client on the user's device speaks
	// RFC 1939 to it, and it calls the same HTTPS operations.
	pop := &pop3.Server{Hostname: email.MailDomain, Auth: email.POP3Auth(mailbox, "hunter2")}
	popLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go pop.Serve(popLn)
	defer pop.Close()
	fmt.Printf("\nPOP3 bridge listening on %s\n", popLn.Addr())
	ids := make([]int, len(entries))
	for i, e := range entries {
		ids[i] = e.ID
	}
	retrieved := pop3Retrieve(popLn.Addr().String(), mailbox.User, "hunter2", ids)
	for _, e := range entries {
		got := retrieved[e.ID]
		if !slices.Equal(got, crlfLines(fetched[e.ID])) {
			log.Fatalf("POP3 RETR %d differs from the HTTPS fetch:\n%q\n%q", e.ID, got, fetched[e.ID])
		}
		fmt.Printf("  RETR %d: %d lines, identical to the HTTPS fetch\n", e.ID, len(got))
	}

	fmt.Println("\nbill so far:")
	fmt.Print(cloud.Bill())
}

// pop3Retrieve logs in to a POP3 server over a raw connection, checks
// that STAT counts exactly the given messages, and retrieves each one:
// its lines with the dot-stuffing undone, keyed by message number.
func pop3Retrieve(addr, user, pass string, ids []int) map[int][]string {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	r := bufio.NewReader(conn)
	line := func() string {
		l, err := r.ReadString('\n')
		if err != nil {
			log.Fatalf("POP3: %v", err)
		}
		return strings.TrimSuffix(l, "\r\n")
	}
	cmd := func(c string) string {
		if c != "" {
			fmt.Fprintf(conn, "%s\r\n", c)
		}
		l := line()
		if !strings.HasPrefix(l, "+OK") {
			log.Fatalf("POP3 %q: %s", c, l)
		}
		return l
	}
	cmd("") // greeting
	cmd("USER " + user)
	cmd("PASS " + pass)
	var count, size int
	if _, err := fmt.Sscanf(cmd("STAT"), "+OK %d %d", &count, &size); err != nil || count != len(ids) {
		log.Fatalf("POP3 STAT: %d messages (%v), want %d", count, err, len(ids))
	}
	out := make(map[int][]string, count)
	for _, n := range ids {
		cmd(fmt.Sprintf("RETR %d", n))
		for l := line(); l != "."; l = line() {
			out[n] = append(out[n], strings.TrimPrefix(l, "."))
		}
	}
	cmd("QUIT")
	return out
}

// crlfLines splits a message into the lines POP3 carries it as.
func crlfLines(msg string) []string {
	return strings.Split(strings.ReplaceAll(msg, "\r\n", "\n"), "\n")
}
