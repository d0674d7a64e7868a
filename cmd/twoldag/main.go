// Command twoldag drives 2LDAG deployments in three modes:
//
//	twoldag run   [flags]   one whole cluster inside this process
//	twoldag serve [flags]   one planned node of a cross-host cluster
//	twoldag join  [flags]   a dynamic joiner dialing a running cluster
//
// run is the original demo: it generates a connected IoT topology,
// starts one node runtime per device, submits data blocks in per-slot
// batches and fans random Proof-of-Path audits out with AuditMany.
// Note that run's -transport tcp still keeps every node in this one
// process — each device gets its own loopback TCP listener, but nothing
// crosses a host boundary. For a real cross-host cluster start one
// `twoldag serve` per device (pointing later ones at the first with
// -bootstrap), and grow it at runtime with `twoldag join -addr`.
//
// serve and join host exactly one device each and speak a JSON-lines
// control protocol on stdin/stdout (see internal/cluster.ServeControl):
// the process prints a `ready` event carrying its ID and advertised
// address, then answers slot/seal/flush/submit/audit/silence/info/leave
// requests until stdin closes or a leave arrives. SIGINT and SIGTERM
// trigger the same graceful shutdown: drain in-flight verbs, broadcast
// Leave so peers mark the node dead, close the listener.
//
// For compatibility, bare flags without a subcommand run the demo:
// `twoldag -nodes 20` behaves exactly as `twoldag run -nodes 20`.
package main

import (
	"fmt"
	"os"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	cmd, rest := "run", args
	if len(args) > 0 {
		switch args[0] {
		case "run", "serve", "join":
			cmd, rest = args[0], args[1:]
		case "help", "-h", "-help", "--help":
			usage(os.Stdout)
			return 0
		default:
			if args[0][0] != '-' {
				fmt.Fprintf(os.Stderr, "twoldag: unknown command %q\n\n", args[0])
				usage(os.Stderr)
				return 2
			}
			// Bare flags: the original single-command interface.
		}
	}
	switch cmd {
	case "serve":
		return runHost(rest, false)
	case "join":
		return runHost(rest, true)
	default:
		return runDemo(rest)
	}
}

func usage(w *os.File) {
	fmt.Fprint(w, `usage: twoldag <command> [flags]

commands:
  run     run a whole cluster inside this process (default; -transport
          tcp gives every node a loopback listener but still stays in
          one process — use serve/join for real cross-host clusters)
  serve   host one planned node of a cross-host cluster and speak the
          JSON-lines control protocol on stdin/stdout
  join    dial a running cluster as a dynamic joiner, re-anchor to the
          newest live device, then speak the same control protocol

run 'twoldag <command> -h' for the command's flags.
`)
}
