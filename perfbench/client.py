"""Process and protocol helpers: run a program and read its peak RSS, and
speak partminerd's newline-delimited JSON over stdio or a Unix socket."""

import json
import os
import socket
import subprocess
import time


def run_timed(argv, log_path):
    """Runs argv to completion. Returns (exit code, wall seconds, peak RSS
    in MB), the RSS taken from wait4."""
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=log)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


class Daemon:
    """A partminerd child process. `reap` waits for it and returns its exit
    code and peak RSS in MB."""

    def __init__(self, argv, log_path, stdio):
        self.log = open(log_path, "ab")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE if stdio else subprocess.DEVNULL,
            stdout=subprocess.PIPE if stdio else self.log, stderr=self.log,
            bufsize=0)
        self.rss_mb = None

    def reap(self, timeout=60):
        if self.proc.stdin:
            self.proc.stdin.close()
        deadline = time.time() + timeout
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.time() > deadline:
                self.proc.kill()
                _, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.02)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        if self.proc.stdout:
            self.proc.stdout.close()
        self.log.close()
        self.rss_mb = usage.ru_maxrss / 1024.0
        return self.proc.returncode, self.rss_mb



class StdioConn:
    def __init__(self, daemon):
        self.w = daemon.proc.stdin
        self.r = daemon.proc.stdout

    def call(self, request):
        self.w.write((json.dumps(request, separators=(",", ":")) + "\n")
                     .encode())
        line = self.r.readline()
        if not line:
            raise RuntimeError("partminerd closed its output")
        return json.loads(line)


class SocketConn:
    """One Unix-socket connection. `send` writes without waiting; `lines`
    returns every complete reply line received so far."""

    def __init__(self, path, timeout=60.0):
        deadline = time.time() + timeout
        while True:
            self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                self.sock.connect(path)
                break
            except (FileNotFoundError, ConnectionRefusedError):
                self.sock.close()
                if time.time() > deadline:
                    raise
                time.sleep(0.0005)
        self.buf = b""

    def send(self, request):
        self.sock.sendall((json.dumps(request, separators=(",", ":")) + "\n")
                          .encode())

    def lines(self):
        data = self.sock.recv(1 << 16)
        if not data:
            raise RuntimeError("partminerd closed the connection")
        self.buf += data
        *done, self.buf = self.buf.split(b"\n")
        return done

    def call(self, request):
        """Synchronous request; only for a connection with nothing else in
        flight."""
        self.send(request)
        while True:
            done = self.lines()
            if done:
                return json.loads(done[0])

    def close(self):
        self.sock.close()
