package pae

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestGenKeySize(t *testing.T) {
	k, err := Gen()
	if err != nil {
		t.Fatalf("Gen: %v", err)
	}
	if len(k) != KeySize {
		t.Errorf("key size = %d, want %d", len(k), KeySize)
	}
}

func TestGenKeysDiffer(t *testing.T) {
	a, b := MustGen(), MustGen()
	if bytes.Equal(a, b) {
		t.Error("two generated keys are equal")
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	c, err := NewCipher(MustGen())
	if err != nil {
		t.Fatalf("NewCipher: %v", err)
	}
	tests := []struct {
		name string
		give []byte
	}{
		{name: "empty", give: []byte{}},
		{name: "short", give: []byte("x")},
		{name: "ascii", give: []byte("Jessica")},
		{name: "binary", give: []byte{0, 1, 2, 255, 254}},
		{name: "long", give: bytes.Repeat([]byte("warehouse"), 100)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			ct, err := c.Encrypt(tt.give)
			if err != nil {
				t.Fatalf("Encrypt: %v", err)
			}
			if len(ct) != CiphertextLen(len(tt.give)) {
				t.Errorf("ciphertext len = %d, want %d", len(ct), CiphertextLen(len(tt.give)))
			}
			pt, err := c.Decrypt(ct)
			if err != nil {
				t.Fatalf("Decrypt: %v", err)
			}
			if !bytes.Equal(pt, tt.give) {
				t.Errorf("round trip = %q, want %q", pt, tt.give)
			}
		})
	}
}

// TestSeal appends a sealed body behind a prefix: under the IV it was
// sealed with it decrypts to its plaintext, under any other IV it fails.
func TestSeal(t *testing.T) {
	c, err := NewCipher(MustGen())
	if err != nil {
		t.Fatal(err)
	}
	iv := bytes.Repeat([]byte{7}, IVSize)
	for _, pt := range [][]byte{{}, []byte("Jessica"), bytes.Repeat([]byte("warehouse"), 100)} {
		out := c.Seal([]byte("prefix"), iv, pt)
		body := out[len("prefix"):]
		if string(out[:6]) != "prefix" || len(body) != len(pt)+TagSize {
			t.Fatalf("Seal(%d bytes) appended %d bytes, want %d", len(pt), len(body), len(pt)+TagSize)
		}
		if got, err := c.Decrypt(append(bytes.Clone(iv), body...)); err != nil || !bytes.Equal(got, pt) {
			t.Errorf("Decrypt(iv || body) = %q, %v; want %q", got, err, pt)
		}
		other := bytes.Repeat([]byte{8}, IVSize)
		if _, err := c.Decrypt(append(other, body...)); err != ErrAuth {
			t.Errorf("Decrypt under another IV: err = %v, want ErrAuth", err)
		}
	}
}

func TestEncryptIsProbabilistic(t *testing.T) {
	c, _ := NewCipher(MustGen())
	a, _ := c.Encrypt([]byte("same plaintext"))
	b, _ := c.Encrypt([]byte("same plaintext"))
	if bytes.Equal(a, b) {
		t.Error("two encryptions of the same plaintext are identical")
	}
}

func TestDecryptRejectsTampering(t *testing.T) {
	c, _ := NewCipher(MustGen())
	ct, _ := c.Encrypt([]byte("sensitive"))
	for i := range ct {
		bad := append([]byte(nil), ct...)
		bad[i] ^= 0x01
		if _, err := c.Decrypt(bad); !errors.Is(err, ErrAuth) {
			t.Errorf("tampering byte %d: err = %v, want ErrAuth", i, err)
		}
	}
}

func TestDecryptRejectsWrongKey(t *testing.T) {
	c1, _ := NewCipher(MustGen())
	c2, _ := NewCipher(MustGen())
	ct, _ := c1.Encrypt([]byte("secret"))
	if _, err := c2.Decrypt(ct); !errors.Is(err, ErrAuth) {
		t.Errorf("wrong key: err = %v, want ErrAuth", err)
	}
}

func TestDecryptRejectsShortCiphertext(t *testing.T) {
	c, _ := NewCipher(MustGen())
	for _, n := range []int{0, 1, Overhead - 1} {
		if _, err := c.Decrypt(make([]byte, n)); !errors.Is(err, ErrCiphertextTooShort) {
			t.Errorf("len %d: err = %v, want ErrCiphertextTooShort", n, err)
		}
	}
}

func TestNewCipherRejectsBadKey(t *testing.T) {
	for _, n := range []int{0, 15, 17, 32} {
		if _, err := NewCipher(make(Key, n)); !errors.Is(err, ErrBadKeySize) {
			t.Errorf("key len %d: err = %v, want ErrBadKeySize", n, err)
		}
	}
}

func TestDeriveDeterministic(t *testing.T) {
	master := MustGen()
	a, err := Derive(master, "t1", "c1")
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	b, _ := Derive(master, "t1", "c1")
	if !bytes.Equal(a, b) {
		t.Error("Derive is not deterministic")
	}
	if len(a) != KeySize {
		t.Errorf("derived key size = %d, want %d", len(a), KeySize)
	}
}

func TestDeriveSeparatesColumns(t *testing.T) {
	master := MustGen()
	tests := []struct {
		name             string
		table1, col1     string
		table2, col2     string
		wantDistinctKeys bool
	}{
		{name: "different column", table1: "t", col1: "a", table2: "t", col2: "b", wantDistinctKeys: true},
		{name: "different table", table1: "t1", col1: "a", table2: "t2", col2: "a", wantDistinctKeys: true},
		{name: "boundary shift", table1: "ab", col1: "c", table2: "a", col2: "bc", wantDistinctKeys: true},
		{name: "same", table1: "t", col1: "a", table2: "t", col2: "a", wantDistinctKeys: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			k1, _ := Derive(master, tt.table1, tt.col1)
			k2, _ := Derive(master, tt.table2, tt.col2)
			if got := !bytes.Equal(k1, k2); got != tt.wantDistinctKeys {
				t.Errorf("distinct keys = %v, want %v", got, tt.wantDistinctKeys)
			}
		})
	}
}

func TestDeriveRejectsBadMaster(t *testing.T) {
	if _, err := Derive(make(Key, 5), "t", "c"); !errors.Is(err, ErrBadKeySize) {
		t.Errorf("err = %v, want ErrBadKeySize", err)
	}
}

func TestDeriveDiffersFromMaster(t *testing.T) {
	master := MustGen()
	d, _ := Derive(master, "t", "c")
	if bytes.Equal(master, d) {
		t.Error("derived key equals master key")
	}
}

func TestDecryptInto(t *testing.T) {
	c, _ := NewCipher(MustGen())
	ct, _ := c.Encrypt([]byte("hello"))
	buf := make([]byte, 0, 64)
	out, err := c.DecryptInto(buf, ct)
	if err != nil {
		t.Fatalf("DecryptInto: %v", err)
	}
	if !bytes.Equal(out, []byte("hello")) {
		t.Errorf("DecryptInto = %q, want %q", out, "hello")
	}
}

func TestConvenienceWrappers(t *testing.T) {
	key := MustGen()
	ct, err := Encrypt(key, []byte("v"))
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	pt, err := Decrypt(key, ct)
	if err != nil {
		t.Fatalf("Decrypt: %v", err)
	}
	if !bytes.Equal(pt, []byte("v")) {
		t.Errorf("round trip = %q", pt)
	}
}

func TestRoundTripProperty(t *testing.T) {
	c, _ := NewCipher(MustGen())
	f := func(pt []byte) bool {
		ct, err := c.Encrypt(pt)
		if err != nil {
			return false
		}
		got, err := c.Decrypt(ct)
		if err != nil {
			return false
		}
		return bytes.Equal(got, pt)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncrypt12B(b *testing.B) {
	c, _ := NewCipher(MustGen())
	pt := []byte("warehouse-12")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encrypt(pt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecrypt12B(b *testing.B) {
	c, _ := NewCipher(MustGen())
	ct, _ := c.Encrypt([]byte("warehouse-12"))
	buf := make([]byte, 0, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if _, err = c.DecryptInto(buf[:0], ct); err != nil {
			b.Fatal(err)
		}
	}
}
