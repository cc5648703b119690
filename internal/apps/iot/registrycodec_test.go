package iot

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"
	"unicode/utf8"

	"repro/internal/crypto/envelope"
)

// plaintext returns the JSON a sealed-document encoder wrote behind the
// envelope header it reserves; a failed encoding's nil stays nil.
func plaintext(buf []byte) []byte {
	if buf == nil {
		return nil
	}
	return buf[envelope.Header:]
}

// fuzzRegistry builds a registry from fuzz inputs. shape's bits choose
// a nil, empty or filled device map, a nil device entry, and nil, empty
// or filled metrics, so every null/{} case occurs.
func fuzzRegistry(name, kind, metric string, value float64, queries int, sec int64, nsec int32, offsetMin int16, shape uint8) *registry {
	reg := &registry{Queries: queries, Alerts: -queries}
	switch shape & 3 {
	case 0:
		return reg
	case 1:
		reg.Devices = map[string]*Device{}
		return reg
	}
	at := time.Unix(sec, int64(nsec)).In(time.FixedZone("", int(offsetMin)*60))
	d := &Device{Name: name, Kind: kind, Registered: at, LastSeen: at.UTC().Add(time.Duration(nsec)), Queries: queries}
	switch shape >> 2 & 3 {
	case 1:
		d.Metrics = map[string]float64{}
	case 2:
		d.Metrics = map[string]float64{metric: value}
	case 3:
		d.Metrics = map[string]float64{metric: value, name: -value, "temperature_c": value * 1e-9}
	}
	reg.Devices = map[string]*Device{name: d, kind + "/2": {Name: kind, Metrics: map[string]float64{}}}
	if shape&16 != 0 {
		reg.Devices[metric] = nil
	}
	return reg
}

// sameDevice compares decoded devices: times by Equal (a decoded zone
// is a new Location), everything else exactly, nil maps apart from
// empty ones.
func sameDevice(got, want *Device) bool {
	if got == nil || want == nil {
		return got == want
	}
	if !got.Registered.Equal(want.Registered) || !got.LastSeen.Equal(want.LastSeen) {
		return false
	}
	g, w := *got, *want
	g.Registered, g.LastSeen, w.Registered, w.LastSeen = time.Time{}, time.Time{}, time.Time{}, time.Time{}
	return reflect.DeepEqual(g, w)
}

func sameRegistry(got, want *registry) bool {
	if got.Queries != want.Queries || got.Alerts != want.Alerts ||
		(got.Devices == nil) != (want.Devices == nil) || len(got.Devices) != len(want.Devices) {
		return false
	}
	for k, w := range want.Devices {
		if g, ok := got.Devices[k]; !ok || !sameDevice(g, w) {
			return false
		}
	}
	return true
}

// checkEncoder requires an encoder's output to be json.Marshal(v)'s, or
// to fail where it fails.
func checkEncoder(t *testing.T, name string, got []byte, err error, v any) {
	t.Helper()
	want, wantErr := json.Marshal(v)
	if (err != nil) != (wantErr != nil) || !bytes.Equal(got, want) {
		t.Fatalf("%s = %q, %v; json.Marshal = %q, %v", name, got, err, want, wantErr)
	}
}

// checkRegistryEncoders runs every encoder over reg: the registry
// itself, the dashboard built from it as the dashboard op builds it,
// and a command and alert notice for each device.
func checkRegistryEncoders(t *testing.T, reg *registry) {
	t.Helper()
	got, err := marshalRegistry(reg)
	checkEncoder(t, "marshalRegistry", plaintext(got), err, reg)
	db := Dashboard{Queries: reg.Queries, Alerts: reg.Alerts}
	for k, d := range reg.Devices {
		if d == nil {
			continue
		}
		db.Devices = append(db.Devices, *d)
		cmd := Command{Device: k, Action: d.Kind, Arg: d.Name}
		checkEncoder(t, "marshalCommand", marshalCommand(&cmd), nil, cmd)
		for m, v := range d.Metrics {
			a := Alert{Device: k, Metric: m, Value: v, Limit: -v / 3}
			got, err := marshalAlert(&a)
			checkEncoder(t, "marshalAlert", got, err, a)
		}
	}
	got, err = marshalDashboard(&db)
	checkEncoder(t, "marshalDashboard", got, err, db)
}

// checkParseRegistry requires parseRegistry to accept pt only if
// json.Unmarshal reads it to a value json.Marshal writes back as pt,
// and then to return that value, which the encoders must write as
// json.Marshal does. The exception is input holding U+FFFD, raw or as
// the \ufffd escape: the encoder writes the escape for invalid UTF-8,
// which decodes to U+FFFD, which the encoder writes raw.
func checkParseRegistry(t *testing.T, pt []byte) {
	t.Helper()
	got, err := parseRegistry(bytes.Clone(pt))
	if err != nil {
		return
	}
	var want registry
	if err := json.Unmarshal(pt, &want); err != nil {
		t.Fatalf("parseRegistry accepted %q, json.Unmarshal: %v", pt, err)
	}
	if !sameRegistry(got, &want) {
		t.Fatalf("parseRegistry(%q) = %#v, json.Unmarshal = %#v", pt, *got, want)
	}
	if canon, _ := json.Marshal(&want); !bytes.Equal(canon, pt) && !bytes.Contains(pt, []byte(`\ufffd`)) && !bytes.ContainsRune(pt, utf8.RuneError) {
		t.Fatalf("parseRegistry accepted %q, json.Marshal writes %q", pt, canon)
	}
	checkRegistryEncoders(t, got)
}

// FuzzRegistryCodec checks the registry codec and the IoT function's
// other encoders against encoding/json in both directions: the
// encoders write json.Marshal's bytes for values built from the inputs,
// the parser reads the registry's bytes back as json.Unmarshal does,
// and on arbitrary bytes it accepts only json.Marshal's encoding of
// what json.Unmarshal reads.
func FuzzRegistryCodec(f *testing.F) {
	ls := string(rune(0x2028))
	f.Add("sensor", "thermo", "temperature_c", 45.5, 3, int64(1496275200), int32(0), int16(0), uint8(0x0e), []byte(`{"devices":null,"queries":0,"alerts":0}`))
	f.Add("", "", "", 0.0, 0, int64(0), int32(0), int16(0), uint8(1), []byte(`{"devices":{},"queries":0,"alerts":0}`))
	f.Add("a<b>&c", "\"k\"\t", "m"+ls, -1e-7, -5, int64(1e9), int32(123456789), int16(330), uint8(0x1f),
		[]byte(`{"devices":{"a":null,"b":{"name":"b","kind":"k","registered":"2017-06-01T00:00:00Z","last_seen":"0001-01-01T00:00:00Z","metrics":{"x":1,"y":-2.5},"queries":1}},"queries":1,"alerts":0}`))
	f.Add("\xff", "bad\xc3\x28", "\x00", 1e21, 1<<40, int64(-62135596800), int32(1), int16(-59), uint8(0x0a),
		[]byte(`{"devices":{"b":null,"a":null},"queries":1,"alerts":0}`))
	f.Add("s", "k", "m", math.NaN(), 1, int64(0), int32(0), int16(0), uint8(0x0a), []byte(`{"devices":{"a":null,"a":null},"queries":1,"alerts":0}`))
	f.Add("s", "k", "m", math.Inf(1), 1, int64(0), int32(0), int16(0), uint8(0x0e), []byte(`{"devices":{"a":{"name":"b","kind":"k","registered":"2017-06-01T00:00:00.0Z","last_seen":"0001-01-01T00:00:00Z","metrics":null,"queries":1}},"queries":1,"alerts":0}`))
	f.Add("s", "k", "m", 1.0, 1, int64(253402300800), int32(0), int16(0), uint8(0x0e), []byte(`{"devices":{"a":{"name":"b","kind":"k","registered":"2017-06-01T00:00:00Z","last_seen":"0001-01-01T00:00:00Z","metrics":{"y":1,"x":2},"queries":1}},"queries":1,"alerts":0}`))
	f.Add("s", "k", "m", 1.0, 1, int64(0), int32(0), int16(1440), uint8(0x06), []byte(`{"devices":{"a":{"name":"b","kind":"k","registered":"2017-06-01T00:00:00Z","last_seen":"0001-01-01T00:00:00Z","metrics":{"x":1.50},"queries":1}},"queries":1,"alerts":0}`))
	f.Fuzz(func(t *testing.T, name, kind, metric string, value float64, queries int, sec int64, nsec int32, offsetMin int16, shape uint8, raw []byte) {
		reg := fuzzRegistry(name, kind, metric, value, queries, sec, nsec, offsetMin, shape)
		checkRegistryEncoders(t, reg)
		if want, err := json.Marshal(reg); err == nil {
			if _, err := parseRegistry(bytes.Clone(want)); err != nil {
				t.Fatalf("parseRegistry(%q): %v", want, err)
			}
			checkParseRegistry(t, want)
		}
		checkParseRegistry(t, raw)
	})
}

func TestParseRegistryRejectsNonCanonical(t *testing.T) {
	const dev = `{"name":"s","kind":"k","registered":"2017-06-01T00:00:00Z","last_seen":"2017-06-01T00:10:00Z","metrics":{"a":1,"b":2.5},"queries":1}`
	if _, err := parseRegistry([]byte(`{"devices":{"s":` + dev + `},"queries":1,"alerts":0}`)); err != nil {
		t.Fatalf("canonical registry rejected: %v", err)
	}
	for _, bad := range []string{
		`{"devices":{"s":` + dev + `},"queries":1,"alerts":0} `,
		`{"devices":{"s":` + dev + `,"r":null},"queries":1,"alerts":0}`,
		`{"devices":{"s":null,"s":null},"queries":1,"alerts":0}`,
		`{"devices":{"s":` + dev + `},"alerts":0,"queries":1}`,
		`{"devices":{"s":{"name":"s","kind":"k","registered":"2017-06-01T00:00:00Z","last_seen":"2017-06-01T00:10:00Z","metrics":{"b":1,"a":2},"queries":1}},"queries":1,"alerts":0}`,
		`{"devices":{"s":{"name":"s","kind":"k","registered":"2017-06-01T00:00:00Z","last_seen":"2017-06-01T00:10:00Z","metrics":{"a":1e0},"queries":1}},"queries":1,"alerts":0}`,
		`{"devices":{"s":{"name":"s","kind":"k","registered":"2017-06-01T00:00:00+00:00","last_seen":"2017-06-01T00:10:00Z","metrics":null,"queries":1}},"queries":1,"alerts":0}`,
		`{"devices":{"s":{"name":"s","kind":"k","registered":"2017-06-01T00:00:00Z","last_seen":"2017-06-01T00:10:00Z","queries":1}},"queries":1,"alerts":0}`,
	} {
		if _, err := parseRegistry([]byte(bad)); err == nil {
			t.Errorf("parseRegistry accepted non-canonical %s", bad)
		}
	}
}

// checkReportDecode requires decodeReport to return exactly what
// json.Unmarshal returns for body, error included, and the fast path,
// whenever it accepts body, to agree with it.
func checkReportDecode(t *testing.T, body []byte) {
	t.Helper()
	var want Report
	wantErr := json.Unmarshal(body, &want)
	got, err := decodeReport(body)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
		t.Fatalf("decodeReport(%q) = %#v, %v; json.Unmarshal = %#v, %v", body, got, err, want, wantErr)
	}
	if fast, ok := readReport(body); ok && (wantErr != nil || !reflect.DeepEqual(fast, want)) {
		t.Fatalf("fast path read %q as %#v; json.Unmarshal = %#v, %v", body, fast, want, wantErr)
	}
}

// FuzzReportDecode checks the report body decoder against
// json.Unmarshal on arbitrary bytes, and that json.Marshal's encoding
// of any Report takes the fast path, so the two agree there by
// construction rather than through the fallback.
func FuzzReportDecode(f *testing.F) {
	f.Add([]byte(`{"device":"sensor","metrics":{"temperature_c":45.5}}`), "sensor", "temperature_c", "humidity", 45.5, 0.25, uint8(1))
	f.Add([]byte(`{"device":"sensor","metrics":{"b":1,"a":2}}`), "", "", "", 0.0, 0.0, uint8(0))
	f.Add([]byte(`{"device":"sensor","metrics":{"a":1,"a":2}}`), "<d>", "a&b", " ", -1e-7, 1e21, uint8(2))
	f.Add([]byte(`{"device":"sensor","metrics":{"a":1.0}}`), "\xff", "\x00", "x", 5e-324, math.MaxFloat64, uint8(3))
	f.Add([]byte(`{"metrics":{"a":1},"device":"sensor"}`), "d", "k", "k2", math.NaN(), 1.0, uint8(2))
	f.Add([]byte(`{"device":"sensor","metrics":null}`), "d", "k", "k2", math.Inf(-1), 1.0, uint8(3))
	f.Add([]byte(`{"device":"sensor","metrics":{}} `), "d", "k", "k2", 1.0, 1.0, uint8(2))
	f.Add([]byte(`{"device":"s","metrics":{"a":1e400}}`), "d", "k", "k2", 1.0, 1.0, uint8(2))
	f.Add([]byte(`{"device":"s","metrics":{"a":"1"}}`), "d", "k", "k2", 1.0, 1.0, uint8(2))
	f.Add([]byte(`{"Device":"s","metrics":{"a":1},"x":[]}`), "d", "k", "k2", 1.0, 1.0, uint8(2))
	f.Fuzz(func(t *testing.T, raw []byte, device, k1, k2 string, v1, v2 float64, shape uint8) {
		checkReportDecode(t, raw)
		// shape's low bits choose nil, empty, one-key or two-key metrics.
		rep := Report{Device: device}
		switch shape & 3 {
		case 1:
			rep.Metrics = map[string]float64{}
		case 2:
			rep.Metrics = map[string]float64{k1: v1}
		case 3:
			rep.Metrics = map[string]float64{k1: v1, k2: v2}
		}
		body, err := json.Marshal(rep)
		if err != nil {
			return // NaN or an infinity: no body to send
		}
		if _, ok := readReport(body); !ok {
			t.Fatalf("fast path rejected json.Marshal output %q", body)
		}
		checkReportDecode(t, body)
	})
}

// The decoded report must not alias the caller's body.
func TestReportDoesNotAliasBody(t *testing.T) {
	body := []byte(`{"device":"sensor","metrics":{"temperature_c":45.5}}`)
	rep, ok := readReport(body)
	if !ok {
		t.Fatalf("fast path rejected %q", body)
	}
	for i := range body {
		body[i] = 'x'
	}
	if rep.Device != "sensor" || !reflect.DeepEqual(rep.Metrics, map[string]float64{"temperature_c": 45.5}) {
		t.Fatalf("overwriting the body changed the report: %+v", rep)
	}
}

// homeRegistry builds the registry of a home with n devices, each
// reporting three metrics, all times UTC.
func homeRegistry(n int) *registry {
	reg := &registry{Devices: map[string]*Device{}, Queries: 40 * n, Alerts: 3}
	base := time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("sensor-%02d", i)
		reg.Devices[name] = &Device{
			Name: name, Kind: "thermo", Registered: base, LastSeen: base.Add(time.Duration(i) * time.Minute),
			Metrics: map[string]float64{"temperature_c": 20.5 + float64(i), "humidity": 0.41, "battery_v": 3.3},
			Queries: 40,
		}
	}
	return reg
}

// The codec's allocation counts are exact and host-independent. Each
// encoder allocates its one presized buffer; map keys sort on the
// stack. A small map is two allocations, its header and its first
// group of slots. The registry parser allocates the registry and its
// device map, and per device the Device and its metrics map: strings
// alias the opened plaintext and UTC times need no Location. The report
// fast path allocates its copy of the body and the metrics map.
func TestRegistryCodecAllocs(t *testing.T) {
	const devices = 8
	reg := homeRegistry(devices)
	buf, err := marshalRegistry(reg)
	if err != nil {
		t.Fatal(err)
	}
	if spare := cap(buf) - len(buf); spare < envelope.Overhead {
		t.Errorf("registry encoded with %d bytes spare, want at least the %d-byte GCM tag", spare, envelope.Overhead)
	}
	pt := plaintext(buf)
	db := Dashboard{Queries: reg.Queries, Alerts: reg.Alerts}
	for _, d := range reg.Devices {
		db.Devices = append(db.Devices, *d)
	}
	cmd := Command{Device: "sensor-03", Action: "set", Arg: "21.5"}
	alert := Alert{Device: "sensor-03", Metric: "temperature_c", Value: 96, Limit: 60}
	body := []byte(`{"device":"sensor-03","metrics":{"temperature_c":45.5}}`)
	for name, c := range map[string]struct {
		want float64
		run  func() error
	}{
		"marshalRegistry":  {1, func() error { _, err := marshalRegistry(reg); return err }},
		"marshalDashboard": {1, func() error { _, err := marshalDashboard(&db); return err }},
		"marshalCommand":   {1, func() error { marshalCommand(&cmd); return nil }},
		"marshalAlert":     {1, func() error { _, err := marshalAlert(&alert); return err }},
		"parseRegistry":    {3 + 3*devices, func() error { _, err := parseRegistry(pt); return err }},
		"readReport": {3, func() error {
			if _, ok := readReport(body); !ok {
				return fmt.Errorf("fast path rejected %q", body)
			}
			return nil
		}},
	} {
		if got := testing.AllocsPerRun(20, func() {
			if err := c.run(); err != nil {
				t.Fatal(err)
			}
		}); got != c.want {
			t.Errorf("%s: %v allocs, want exactly %v", name, got, c.want)
		}
	}
}
