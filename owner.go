package encdbdb

import (
	crand "crypto/rand"
	"errors"
	"fmt"

	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/enclave"
	"github.com/encdbdb/encdbdb/internal/pae"
	"github.com/encdbdb/encdbdb/internal/proxy"
)

// DataOwner holds the master database key SK_DB and performs the trusted
// setup of paper Fig. 5: attesting the provider's enclave, provisioning the
// key, and preparing encrypted columns so plaintext never leaves the
// owner's realm.
type DataOwner struct {
	master Key
}

// NewDataOwner creates a data owner with a fresh master key.
func NewDataOwner() (*DataOwner, error) {
	k, err := GenerateKey()
	if err != nil {
		return nil, err
	}
	return &DataOwner{master: k}, nil
}

// NewDataOwnerWithKey creates a data owner from an existing master key,
// e.g. to reconnect after a restart.
func NewDataOwnerWithKey(k Key) (*DataOwner, error) {
	if len(k) != pae.KeySize {
		return nil, pae.ErrBadKeySize
	}
	return &DataOwner{master: append(Key(nil), k...)}, nil
}

// MasterKey returns the owner's master key (for out-of-band proxy
// deployment).
func (o *DataOwner) MasterKey() Key { return append(Key(nil), o.master...) }

// Provision runs the full remote attestation flow against an embedded
// database (paper Fig. 5 steps 1-2): request a quote for a fresh nonce,
// verify measurement and platform authenticity, establish the channel, and
// deploy SK_DB into the enclave. Tables whose delta came due before the
// enclave held the key (recovered from the write-ahead log) start sealing.
func (o *DataOwner) Provision(d *Database) error {
	nonce := make([]byte, 16)
	if _, err := crand.Read(nonce); err != nil {
		return fmt.Errorf("encdbdb: nonce: %w", err)
	}
	quote := d.encl.Quote(nonce)
	expected := enclave.Measure(DefaultEnclaveIdentity)
	if err := d.platform.VerifyQuote(quote, expected, nonce); err != nil {
		return fmt.Errorf("encdbdb: attestation: %w", err)
	}
	sealed, err := enclave.SealKey(quote, o.master)
	if err != nil {
		return fmt.Errorf("encdbdb: seal key: %w", err)
	}
	if err := d.db.Provision(sealed); err != nil {
		return fmt.Errorf("encdbdb: provision: %w", err)
	}
	return nil
}

// RemoteClient is the connection surface the data owner needs from a
// remote provider; *Client and *Pool both implement it.
type RemoteClient interface {
	Executor
	Quote(nonce []byte) (enclave.Quote, error)
	Provision(sk enclave.SealedKey) error
	ImportColumn(table, column string, s *dict.Split) error
}

// ProvisionClient deploys SK_DB into a remote provider's enclave. The quote
// is requested over the wire; expectedMeasurement pins the enclave code
// identity the owner audited (use Measurement(DefaultEnclaveIdentity) for
// this repository's server binary). Platform authenticity verification
// requires Intel's (here: the platform's) verification service and is part
// of the embedded Provision; over the wire this simulation checks the
// measurement binding only.
func (o *DataOwner) ProvisionClient(c RemoteClient, expectedMeasurement [32]byte) error {
	nonce := make([]byte, 16)
	if _, err := crand.Read(nonce); err != nil {
		return fmt.Errorf("encdbdb: nonce: %w", err)
	}
	quote, err := c.Quote(nonce)
	if err != nil {
		return err
	}
	if [32]byte(quote.Measurement) != expectedMeasurement {
		return errors.New("encdbdb: remote enclave measurement mismatch")
	}
	if string(quote.Nonce) != string(nonce) {
		return errors.New("encdbdb: remote quote nonce mismatch")
	}
	sealed, err := enclave.SealKey(quote, o.master)
	if err != nil {
		return fmt.Errorf("encdbdb: seal key: %w", err)
	}
	return c.Provision(sealed)
}

// Measurement computes the expected enclave measurement for a code
// identity.
func Measurement(identity string) [32]byte {
	return [32]byte(enclave.Measure(identity))
}

// Session opens a trusted SQL gateway (the paper's proxy) against an
// embedded database.
func (o *DataOwner) Session(d *Database) (*Session, error) {
	p, err := proxy.New(o.master, d.db)
	if err != nil {
		return nil, err
	}
	return &Session{p: p}, nil
}

// RemoteSession opens a trusted SQL gateway against a remote provider
// (a *Client or *Pool).
func (o *DataOwner) RemoteSession(c Executor) (*Session, error) {
	p, err := proxy.New(o.master, c)
	if err != nil {
		return nil, err
	}
	return &Session{p: p}, nil
}

// DeployTable performs the owner-side bulk load (paper Fig. 5 steps 3-4):
// it creates the table, splits every column under its encrypted dictionary
// locally — plaintext never leaves the owner — and imports the encrypted
// splits into the provider. rows is row-major: rows[i][j] is column j of
// row i, in schema order.
func (o *DataOwner) DeployTable(d *Database, schema Schema, rows [][]string) error {
	return o.deploy(d.db, schema, rows)
}

// DeployTableClient is DeployTable against a remote provider.
func (o *DataOwner) DeployTableClient(c RemoteClient, schema Schema, rows [][]string) error {
	return o.deploy(c, schema, rows)
}

// importer is what a bulk load needs of a provider, embedded or remote.
type importer interface {
	CreateTable(schema Schema) error
	ImportColumn(table, column string, s *dict.Split) error
}

// deploy is DeployTable's body for either kind of provider.
func (o *DataOwner) deploy(p importer, schema Schema, rows [][]string) error {
	if err := p.CreateTable(schema); err != nil {
		return err
	}
	for j, def := range schema.Columns {
		split, err := o.buildColumn(schema.Table, def, columnOf(rows, j))
		if err != nil {
			return fmt.Errorf("encdbdb: deploy %q.%q: %w", schema.Table, def.Name, err)
		}
		if err := p.ImportColumn(schema.Table, def.Name, split); err != nil {
			return err
		}
	}
	return nil
}

// buildColumn runs the EncDB operation for one column with crypto-seeded
// randomness for the security-relevant rotation/shuffle/bucket draws.
func (o *DataOwner) buildColumn(table string, def ColumnDef, values [][]byte) (*dict.Split, error) {
	rnd, err := dict.NewRand()
	if err != nil {
		return nil, err
	}
	p := dict.Params{
		Kind:   def.Kind,
		MaxLen: def.MaxLen,
		BSMax:  def.BSMax,
		Plain:  def.Plain,
		Rand:   rnd,
	}
	if !def.Plain {
		key, err := pae.Derive(o.master, table, def.Name)
		if err != nil {
			return nil, err
		}
		cipher, err := pae.NewCipher(key)
		if err != nil {
			return nil, err
		}
		p.Cipher = cipher
	}
	return dict.Build(values, p)
}

// columnOf extracts column j from row-major string rows.
func columnOf(rows [][]string, j int) [][]byte {
	col := make([][]byte, len(rows))
	for i, r := range rows {
		if j < len(r) {
			col[i] = []byte(r[j])
		} else {
			col[i] = []byte{}
		}
	}
	return col
}
