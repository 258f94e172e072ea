#!/bin/sh
# Stand-in for docker, tc, nft, ip, bridge, sysctl and sleep on the apply path.
#
# The harness copies this file under each tool's name into a directory it puts
# first on PATH. Every invocation appends one tab-separated record to
# $PERFBENCH_STUB_LOG: "S", the tool name, then its argv. The batch forms
# `tc -batch <file|->` and `nft -f <file|->` add one "b" record per command
# line they read. Queries that apply mode parses are answered from files the
# harness writes under $PERFBENCH_STUB_DATA:
#   docker exec <node> cat .../iflink|address   <node>.iflink, <node>.address
#   ip -o link show                             links
#   sysctl -n <key>                             sysctl.<key>
# It is POSIX sh on purpose, so one call costs about what spawning a small C
# binary does. PERFBENCH_STUB_FAULT=drop:N|swap:N makes the N-th tc call drop
# its record, or log it after the next one (the smoke test uses this).

tool=${0##*/}
log=${PERFBENCH_STUB_LOG:?PERFBENCH_STUB_LOG is not set}
data=${PERFBENCH_STUB_DATA:?PERFBENCH_STUB_DATA is not set}

record() {
    printf '%s\t%s' "$1" "$tool"
    shift
    [ $# -eq 0 ] || printf '\t%s' "$@"
    printf '\n'
}

batch() {
    # $1 is a file name or "-" for stdin; one record per non-empty command line.
    if [ "$1" = - ]; then
        while IFS= read -r line || [ -n "$line" ]; do
            case $line in '' | '#'*) ;; *) record b "$line" ;; esac
        done
    else
        while IFS= read -r line || [ -n "$line" ]; do
            case $line in '' | '#'*) ;; *) record b "$line" ;; esac
        done < "$1"
    fi
}

if [ "$tool" = tc ] && [ -n "${PERFBENCH_STUB_FAULT:-}" ]; then
    n=0
    [ -f "$data/tc.count" ] && read -r n < "$data/tc.count"
    n=$((n + 1))
    echo "$n" > "$data/tc.count"
    case $PERFBENCH_STUB_FAULT in
        "drop:$n") exit 0 ;;
        "swap:$n") record S "$@" > "$data/tc.held"; exit 0 ;;
    esac
    if [ -s "$data/tc.held" ]; then
        { record S "$@"; while IFS= read -r line; do printf '%s\n' "$line"; done < "$data/tc.held"; } >> "$log"
        : > "$data/tc.held"
        exit 0
    fi
fi

case $tool in
    tc)
        if [ "${1:-}" = -batch ] || [ "${1:-}" = -b ]; then
            { record S "$@"; batch "${2:--}"; } >> "$log"
            exit 0
        fi
        ;;
    nft)
        if [ "${1:-}" = -f ] || [ "${1:-}" = --file ]; then
            { record S "$@"; batch "${2:--}"; } >> "$log"
            exit 0
        fi
        ;;
esac

record S "$@" >> "$log"

case $tool in
    docker)
        if [ "${1:-}" = exec ] && [ "${3:-}" = cat ]; then
            leaf=${4##*/}
            if [ ! -f "$data/$2.$leaf" ]; then
                echo "docker: no such container: $2" >&2
                exit 1
            fi
            read -r value < "$data/$2.$leaf"
            printf '%s\n' "$value"
        fi
        ;;
    ip)
        if [ "$*" = "-o link show" ]; then
            while IFS= read -r line; do printf '%s\n' "$line"; done < "$data/links"
        fi
        ;;
    sysctl)
        if [ "${1:-}" = -n ]; then
            if [ ! -f "$data/sysctl.$2" ]; then
                echo "sysctl: cannot stat /proc/sys/$2: No such file or directory" >&2
                exit 255
            fi
            read -r value < "$data/sysctl.$2"
            printf '%s\n' "$value"
        fi
        ;;
esac
exit 0
