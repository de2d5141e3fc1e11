// Command encdbdb is an interactive SQL shell over an embedded EncDBDB
// instance: it launches the provider (engine + enclave), provisions it with
// a fresh or supplied master key, and executes SQL statements from stdin
// through the trusted proxy.
//
// Usage:
//
//	encdbdb [-key HEXKEY] [file.encdb ...]
//
// Example session:
//
//	encdbdb> CREATE TABLE t1 (fname ED5(30) BSMAX 10, city ED1(20))
//	encdbdb> INSERT INTO t1 VALUES ('Jessica', 'Waterloo')
//	encdbdb> SELECT fname FROM t1 WHERE fname >= 'A' AND fname < 'K'
//	encdbdb> \save t1 /tmp/t1.encdb
//	encdbdb> \stats
//	encdbdb> \quit
package main

import (
	"bufio"
	"context"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/encdbdb/encdbdb"
	"github.com/encdbdb/encdbdb/internal/shell"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "encdbdb:", err)
		os.Exit(1)
	}
}

func run() error {
	keyHex := flag.String("key", "", "master key as 32 hex chars (default: generate fresh)")
	flag.Parse()

	db, err := encdbdb.Open()
	if err != nil {
		return err
	}
	owner, err := makeOwner(*keyHex)
	if err != nil {
		return err
	}
	if err := owner.Provision(db); err != nil {
		return err
	}
	for _, path := range flag.Args() {
		if err := db.LoadTable(path); err != nil {
			return fmt.Errorf("load %s: %w", path, err)
		}
		fmt.Printf("loaded %s\n", path)
	}
	sess, err := owner.Session(db)
	if err != nil {
		return err
	}
	fmt.Printf("EncDBDB shell — master key %s\n", hex.EncodeToString(owner.MasterKey()))
	fmt.Println(`type SQL statements, \save <table> <path>, \stats, or \quit`)
	return repl(db, sess)
}

func makeOwner(keyHex string) (*encdbdb.DataOwner, error) {
	if keyHex == "" {
		return encdbdb.NewDataOwner()
	}
	key, err := hex.DecodeString(keyHex)
	if err != nil {
		return nil, fmt.Errorf("bad -key: %w", err)
	}
	return encdbdb.NewDataOwnerWithKey(key)
}

func repl(db *encdbdb.Database, sess *encdbdb.Session) error {
	// Ctrl-C cancels the statement in flight through its context instead of
	// killing the shell.
	interrupt := shell.NewInterrupter(os.Stdout)
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("encdbdb> ")
		if !scanner.Scan() {
			fmt.Println()
			return scanner.Err()
		}
		line := strings.TrimSpace(scanner.Text())
		switch {
		case line == "":
			continue
		case line == `\quit` || line == `\q`:
			return nil
		case line == `\stats`:
			st := db.EnclaveStats()
			fmt.Printf("ecalls=%d loads=%d bytes=%d decryptions=%d encryptions=%d\n",
				st.ECalls, st.Loads, st.BytesLoaded, st.Decryptions, st.Encryptions)
			continue
		case strings.HasPrefix(line, `\save `):
			parts := strings.Fields(line)
			if len(parts) != 3 {
				fmt.Println(`usage: \save <table> <path>`)
				continue
			}
			if err := db.SaveTable(parts[1], parts[2]); err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Printf("saved %s to %s\n", parts[1], parts[2])
			continue
		}
		ctx := interrupt.Begin()
		results, err := sess.ExecScript(ctx, line)
		interrupt.End()
		for _, res := range results {
			shell.PrintResult(os.Stdout, res)
		}
		switch {
		case errors.Is(err, context.Canceled):
			fmt.Println("query cancelled")
		case err != nil:
			fmt.Println("error:", err)
		}
	}
}
