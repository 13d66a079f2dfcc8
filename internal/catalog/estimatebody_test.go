package catalog

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"xcluster/internal/service"
)

// FuzzDecodeEstimateRequest checks POST /estimate's body decoder
// against the json.Decoder it stands in for: for any body, both yield
// the same EstimateRequest (reflect.DeepEqual, so a nil queries slice
// differs from an empty one) or fail with the same error text.
func FuzzDecodeEstimateRequest(f *testing.F) {
	for _, seed := range []string{
		`{"queries":["//book[year>1990]/title"]}`,
		`{"tenant":"acme","collection":"docs","queries":["//book","//book/title"],"explain":true,"plan":false,"trace":true}`,
		" \t\r\n{ \"queries\" : [ \"//book\" , \"//journal\" ] , \"trace\" : false } \n",
		`{}`,
		`{"queries":[]}`,
		`{"queries":["//book[year\u003e1990]/title"]}`,
		`{"queries":["//book[title contains(\"x\")]"]}`,
		`{"queries":["\u003C\/\\\b\f\n\r\t\u00e9\u0000"]}`,
		`{"queries":["\ud83d\ude00","\ud83d"]}`,
		`{"queries":["\u00"]}`,
		`{"queries":["\x"]}`,
		`{"quer\u0069es":["//book"]}`,
		`{"Queries":["//book"]}`,
		`{"queries":["//book"],"queries":["//book/title"]}`,
		`{"explain":true,"explain":false,"queries":["//book"]}`,
		`{"queries":null}`,
		`{"tenant":null,"queries":["//book"]}`,
		`{"explain":null,"queries":["//book"]}`,
		`{"explain":1,"queries":["//book"]}`,
		`{"queries":[1]}`,
		`{"queries":"//book"}`,
		`{"queries":[["//book"]]}`,
		`{"queries":["//book"],"limit":{"n":1}}`,
		`{"queries":["//book"]} x`,
		`{"queries":["//book"]}{}`,
		"\ufeff{\"queries\":[\"//book\"]}",
		"{\"queries\":[\"//b\xffok\"]}",
		"{\"queries\":[\"//b\x01ok\"]}",
		`[]`,
		``,
		`{"queries":["//book"]`,
		`{"queries":["//book",]}`,
		`{,}`,
		`{"queries":["//book"] "trace":true}`,
		`{"trace":tru}`,
		`{"trace":truex}`,
		`{"queries":["é//book"]}`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body string) {
		var want EstimateRequest
		dec := json.NewDecoder(http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(strings.NewReader(body)), service.MaxRequestBytes))
		dec.DisallowUnknownFields()
		wantErr := dec.Decode(&want)

		var got EstimateRequest
		w := httptest.NewRecorder()
		eb := newEstimateBody()
		defer eb.release()
		ok := eb.decode(w, httptest.NewRequest(http.MethodPost, "/estimate", strings.NewReader(body)), &got)
		switch {
		case ok && wantErr != nil:
			t.Fatalf("%q: decoded %+v, json.Decoder fails: %v", body, got, wantErr)
		case ok && !reflect.DeepEqual(got, want):
			t.Fatalf("%q: decoded %#v, json.Decoder %#v", body, got, want)
		case !ok && wantErr == nil:
			t.Fatalf("%q: failed (%s), json.Decoder decodes %+v", body, w.Body.String(), want)
		case !ok:
			var env struct{ Error string }
			if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || w.Code != http.StatusBadRequest ||
				env.Error != "bad request body: "+wantErr.Error() {
				t.Fatalf("%q: status %d, body %s; want 400 with json.Decoder's error %q", body, w.Code, w.Body.String(), wantErr)
			}
		}
	})
}

// TestParsePlainEstimateRequest pins which bodies take the plain parser
// (so the differential fuzz test compares it, not only the fallback)
// and that a turned-down body leaves the request untouched.
func TestParsePlainEstimateRequest(t *testing.T) {
	for _, body := range []string{
		`{"queries":["//book[year>1990]/title"]}`,
		`{}`,
		`{"queries":[]}`,
		" { \"tenant\" : \"acme\" ,\n\"collection\":\"docs\",\"queries\":[\"a\",\"é\"],\"explain\":true,\"plan\":false,\"trace\":true }\r\n",
		`{"queries":["//book[year\u003e1990 \u0026 year\u003C2000]/title"],"tenant":"a\"b\\"}`,
		`{"queries":["\/\b\f\n\r\t\u00e9\u0000\uFFFF"]}`,
	} {
		var got, want EstimateRequest
		if !parsePlainEstimateRequest([]byte(body), nil, &got) {
			t.Errorf("%q: not parsed as a plain request", body)
		} else if err := json.Unmarshal([]byte(body), &want); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%q: parsed as %#v, json.Unmarshal %#v (%v)", body, got, want, err)
		}
	}
	for _, body := range []string{
		`{"queries":["\ud83d\ude00"]}`,
		`{"queries":["\u00"]}`,
		`{"queries":["\x"]}`,
		`{"quer\u0069es":["a"]}`,
		`{"Queries":["a"]}`,
		`{"queries":["a"],"queries":["b"]}`,
		`{"queries":null}`,
		`{"queries":["a"]} x`,
		"{\"queries\":[\"\xff\"]}",
		"{\"queries\":[\"\t\"]}",
		`{"trace":1}`,
		`[]`,
		``,
	} {
		req := EstimateRequest{Tenant: "keep"}
		if parsePlainEstimateRequest([]byte(body), nil, &req) || req.Tenant != "keep" {
			t.Errorf("%q: parsed as a plain request (%+v)", body, req)
		}
	}
}

// TestDecodeEstimateBodyReadsLikeDecodeBody compares POST /estimate's
// body decoder with decodeBody on bodies the fuzz test's requests
// cannot carry: a read that fails partway, a chunked body (no length),
// a hand-built request whose body outruns its length past the size
// limit, and a body one byte over the limit whose last read also
// reports its end. Status and response bytes must be the same.
func TestDecodeEstimateBodyReadsLikeDecodeBody(t *testing.T) {
	huge := `{"queries":["` + strings.Repeat("a", service.MaxRequestBytes) + `"]}`
	justOver := `{"queries":["` + strings.Repeat("a", service.MaxRequestBytes-15) + `"]}`
	for _, c := range []struct {
		name   string
		length int64
		body   func() io.Reader
	}{
		{"read error", 40, func() io.Reader {
			return io.MultiReader(strings.NewReader(`{"queries":["//bo`), errReader{errors.New("read failed")})
		}},
		{"read error after the object", 40, func() io.Reader {
			return io.MultiReader(strings.NewReader(`{"queries":["//book"]}`), errReader{errors.New("connection reset")})
		}},
		{"chunked", -1, func() io.Reader { return strings.NewReader(`{"queries":["//book"]}`) }},
		{"body outruns its length", 10, func() io.Reader { return strings.NewReader(huge) }},
		{"over the limit", int64(len(huge)), func() io.Reader { return strings.NewReader(huge) }},
		{"over the limit by the last byte, read with io.EOF", -1, func() io.Reader {
			return iotest.DataErrReader(strings.NewReader(justOver))
		}},
	} {
		serve := func(decode func(http.ResponseWriter, *http.Request) bool) (*httptest.ResponseRecorder, bool) {
			r := httptest.NewRequest(http.MethodPost, "/estimate", nil)
			r.Body, r.ContentLength = io.NopCloser(c.body()), c.length
			w := httptest.NewRecorder()
			return w, decode(w, r)
		}
		var got, want EstimateRequest
		gw, gok := serve(func(w http.ResponseWriter, r *http.Request) bool { return new(estimateBody).decode(w, r, &got) })
		ww, wok := serve(func(w http.ResponseWriter, r *http.Request) bool { return decodeBody(w, r, &want, false) })
		if gok != wok || gw.Code != ww.Code || gw.Body.String() != ww.Body.String() || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: got %v %d %q %+v, decodeBody %v %d %q %+v", c.name,
				gok, gw.Code, gw.Body.String(), len(got.Queries), wok, ww.Code, ww.Body.String(), len(want.Queries))
		}
	}
}
