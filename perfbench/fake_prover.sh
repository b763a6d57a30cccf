#!/bin/sh
# Stand-in HOL prover for the benchmark: waits a fixed 5 ms, then reports
# Theorem for the problem file given as $1.  Usage: sh fake_prover.sh FILE
sleep 0.005
echo "% SZS status Theorem for $1"
