// Filetransfer demonstrates the AirDrop-like DIY service: the sender
// uploads a file into sealed temporary storage, the recipient learns
// of it through the offers queue and downloads it directly from
// storage, opening the envelope with the data key KMS releases to the
// user's client principal.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"time"

	diy "repro"
	"repro/internal/apps/filetransfer"
	"repro/internal/crypto/envelope"
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

	// A day later, the sweep clears the temporary storage.
	cloud.Clock.Advance(25 * time.Hour)
	resp, _, err = d.Invoke(d.ClientContext(), "sweep", nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("TTL sweep removed %s expired transfer(s)\n", resp.Body)

	fmt.Println("\nbill so far:")
	fmt.Print(cloud.Bill())
}
