// Filetransfer demonstrates the AirDrop-like DIY service: the sender
// uploads a file into sealed temporary storage, the recipient learns
// of it through the offers queue and downloads it directly from
// storage, opening the envelope with the data key KMS releases to the
// user's client principal.
//
// It then runs the zero-credential handoff (DESIGN §4, E4): a file
// sealed to an outside recipient's public key, fetched through a
// presigned link by a caller with no cloud account, and opened on the
// recipient's device. The program exits non-zero unless the stored
// object is a sealed box the deployment's own data key cannot open,
// and the link stops working once its TTL has passed.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"time"

	diy "repro"
	"repro/internal/apps/filetransfer"
	"repro/internal/cloudsim/s3"
	"repro/internal/cloudsim/sim"
	"repro/internal/crypto/envelope"
	"repro/internal/crypto/sealedbox"
)

func main() {
	log.SetFlags(0)

	cloud, err := diy.NewCloud(diy.CloudOptions{})
	if err != nil {
		log.Fatal(err)
	}
	d, err := diy.Install(cloud, "casey", diy.FileTransferApp{TTL: 24 * time.Hour})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("installed file transfer at %s (1 GB function, %v TTL)\n",
		d.Endpoint, 24*time.Hour)

	// Sender uploads a 5 MB file addressed to dana.
	payload := bytes.Repeat([]byte("home-video-frame "), 300_000) // ~5 MB
	req, _ := json.Marshal(filetransfer.UploadRequest{
		Name: "birthday.mp4", To: "dana", Data: payload,
	})
	resp, stats, err := d.Invoke(d.ClientContext(), "upload", req)
	if err != nil || resp.Status != 200 {
		log.Fatalf("upload: %v (status %d)", err, resp.Status)
	}
	fmt.Printf("uploaded %d bytes: run %v, billed %v, peak memory %d MB\n",
		len(payload), stats.RunTime.Round(time.Millisecond), stats.BilledTime,
		stats.PeakMemoryBytes>>20)

	// Recipient: poll the offers queue, open the sealed notice.
	ctx := d.ClientContext()
	msgs, err := cloud.SQS.Receive(ctx, d.Queues[filetransfer.OffersQueue], 1, 20*time.Second)
	if err != nil || len(msgs) != 1 {
		log.Fatalf("offer poll: %v (%d messages)", err, len(msgs))
	}
	dataKey, err := cloud.KMS.Decrypt(d.ClientContext(), d.WrappedKey)
	if err != nil {
		log.Fatal(err)
	}
	key, err := envelope.NewKey(dataKey)
	if err != nil {
		log.Fatal(err)
	}
	noticePT, err := key.Open(msgs[0].Body, []byte("offer"))
	if err != nil {
		log.Fatal(err)
	}
	var offer filetransfer.Offer
	if err := json.Unmarshal(noticePT, &offer); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dana's device saw the offer: %q from %s (%d bytes)\n",
		offer.Name, offer.From, offer.Size)

	// Direct sealed fetch (the "simultaneous download" path): read the
	// object straight from storage and open it locally.
	obj, err := cloud.S3.Get(d.ClientContext(), d.Bucket, filetransfer.ObjectKey(offer.Name))
	if err != nil {
		log.Fatal(err)
	}
	pt, err := key.Open(obj.Data, []byte(filetransfer.ObjectKey(offer.Name)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("downloaded and opened locally: %d bytes, intact=%v\n",
		len(pt), bytes.Equal(pt, payload))

	// E4: erin has no cloud account, only a keypair on their own
	// device. The sender seals the file to erin's public key and hands
	// over a presigned link; erin fetches it anonymously and opens it
	// locally.
	erinPub, erinPriv, err := sealedbox.GenerateKeys()
	if err != nil {
		log.Fatal(err)
	}
	secret := []byte("for erin's eyes only")
	secretKey := filetransfer.ObjectKey("secret.pdf")
	req, _ = json.Marshal(filetransfer.UploadRequest{
		Name: "secret.pdf", To: "erin@elsewhere.example", Data: secret, RecipientPub: erinPub.Bytes(),
	})
	if resp, _, err = d.Invoke(d.ClientContext(), "upload", req); err != nil || resp.Status != 200 {
		log.Fatalf("recipient-sealed upload: %v (status %d)", err, resp.Status)
	}
	if resp, _, err = d.Invoke(d.ClientContext(), "link", []byte("secret.pdf")); err != nil || resp.Status != 200 {
		log.Fatalf("link: %v (status %d)", err, resp.Status)
	}
	token := string(resp.Body)
	anon := &sim.Context{Cursor: sim.NewCursor(cloud.Clock.Now()), External: true}
	box, err := cloud.S3.GetPresigned(anon, token)
	if err != nil {
		log.Fatal(err)
	}
	if !sealedbox.IsSealedBox(box.Data) || bytes.Contains(box.Data, secret) {
		log.Fatal("the recipient-sealed transfer is not stored as a sealed box")
	}
	if _, err := key.Open(box.Data, []byte(secretKey)); err == nil {
		log.Fatal("the deployment's data key opened a recipient-sealed transfer")
	}
	opened, err := sealedbox.Open(erinPriv, box.Data, []byte(secretKey))
	if err != nil || !bytes.Equal(opened, secret) {
		log.Fatalf("erin could not open the transfer: %v", err)
	}
	fmt.Printf("erin fetched %d sealed bytes with no credentials and opened them on their device (the data key cannot)\n",
		len(box.Data))

	// A day later the link is dead and the sweep clears the temporary
	// storage.
	cloud.Clock.Advance(25 * time.Hour)
	late := &sim.Context{Cursor: sim.NewCursor(cloud.Clock.Now()), External: true}
	if _, err := cloud.S3.GetPresigned(late, token); !errors.Is(err, s3.ErrTokenExpired) {
		log.Fatalf("link after its TTL: %v, want %v", err, s3.ErrTokenExpired)
	}
	fmt.Println("25 h later erin's link has expired")
	resp, _, err = d.Invoke(d.ClientContext(), "sweep", nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("TTL sweep removed %s expired transfer(s)\n", resp.Body)

	fmt.Println("\nbill so far:")
	fmt.Print(cloud.Bill())
}
