// Transports: how a serve session talks to one client.
//
// The serve loop used to *be* its transport — a while(getline(stdin)) with
// responses on stdout. This module splits the byte channel out behind a tiny
// interface (one std::istream for frames in, one std::ostream for responses
// out), so the session logic in engine/serve is written once and runs
// unchanged over:
//
//   IostreamTransport — borrowed streams: the classic stdin/stdout framed
//                       loop, in-process tests over stringstreams, benches.
//   FdTransport       — an owned POSIX fd (socket or pipe) grown into
//                       streams by FdStreambuf; one per accepted client.
//
// Listeners share one interface (`Listener`): bind a socket, accept
// FdTransports, poll with a short timeout so the accept loop can observe a
// shutdown flag without signals. Two implementations:
//
//   UnixListener — a unix-domain socket; unix_connect is the matching
//                  client side (CLI `client`, tests, the CI smoke).
//   TcpListener  — an AF_INET/AF_INET6 socket for `--listen=tcp:HOST:PORT`.
//                  There is no auth yet, so non-loopback bind addresses are
//                  REFUSED unless the caller passes allow_remote (the CLI's
//                  --allow-remote). tcp_connect is the client side.
//
// Streams were chosen over a read(buf)/write(buf) interface deliberately:
// the native `instance` frame hands the stream to the instance parser
// mid-session (the body follows the header directly), which only works when
// the transport *is* an istream.
#pragma once

#include <cstdint>
#include <istream>
#include <memory>
#include <ostream>
#include <streambuf>
#include <string>

namespace bisched::engine {

class Transport {
 public:
  virtual ~Transport() = default;

  virtual std::istream& in() = 0;
  virtual std::ostream& out() = 0;
  // Human-readable peer label for stats/log lines ("stdio", "unix:3", ...).
  virtual const std::string& peer() const = 0;

  // Unblocks a reader stuck in in() by forcing EOF, from another thread —
  // how a server shutdown ends sessions whose clients are idle but still
  // connected. Default: no-op (borrowed iostreams have no such lever).
  virtual void interrupt() {}
};

// Borrows caller-owned streams; lifetime is the caller's problem.
class IostreamTransport final : public Transport {
 public:
  IostreamTransport(std::istream& in, std::ostream& out, std::string peer = "stdio")
      : in_(&in), out_(&out), peer_(std::move(peer)) {}

  std::istream& in() override { return *in_; }
  std::ostream& out() override { return *out_; }
  const std::string& peer() const override { return peer_; }

 private:
  std::istream* in_;
  std::ostream* out_;
  std::string peer_;
};

// Duplex streambuf over one fd: buffered reads (underflow -> ::read) and
// buffered writes (sync -> full ::write loop, EINTR-safe). The serve session
// flushes after every response line, so a pipe/socket peer can drive the
// conversation request-by-request.
class FdStreambuf final : public std::streambuf {
 public:
  explicit FdStreambuf(int fd);

 protected:
  int_type underflow() override;
  int_type overflow(int_type c) override;
  int sync() override;

 private:
  bool flush_output();

  static constexpr std::size_t kBufSize = 1 << 16;
  int fd_;
  std::unique_ptr<char[]> in_buf_;
  std::unique_ptr<char[]> out_buf_;
};

// Owns the fd: closes it on destruction (which is what ends the client's
// read loop after a session drains).
class FdTransport final : public Transport {
 public:
  FdTransport(int fd, std::string peer);
  ~FdTransport() override;
  FdTransport(const FdTransport&) = delete;
  FdTransport& operator=(const FdTransport&) = delete;

  std::istream& in() override { return in_; }
  std::ostream& out() override { return out_; }
  const std::string& peer() const override { return peer_; }
  // shutdown(SHUT_RD): a blocked read returns 0 (EOF); pending writes still
  // flush. Safe to call from another thread while the session reads.
  void interrupt() override;
  // The owned fd, for callers doing raw readiness IO (the async serve core
  // and the pipelining client). The transport still owns and closes it.
  int fd() const { return fd_; }

 private:
  int fd_;
  std::string peer_;
  FdStreambuf buf_;
  std::istream in_;
  std::ostream out_;
};

// What a serve accept loop needs from any bound socket, regardless of
// address family. Implementations poll so callers can observe a stop flag.
class Listener {
 public:
  virtual ~Listener() = default;

  // Waits up to poll_ms for a connection. nullptr on timeout or transient
  // error — callers loop on a stop flag. Fatal listener errors set ok() to
  // false.
  virtual std::unique_ptr<FdTransport> accept(int poll_ms) = 0;

  virtual bool ok() const = 0;
  // The bound address in --listen spelling ("unix:PATH", "tcp:HOST:PORT").
  virtual std::string endpoint() const = 0;
  // The listening fd for readiness-loop callers (epoll registration + raw
  // accept); -1 when the listener cannot expose one. Ownership stays here.
  virtual int fd() const { return -1; }
};

class UnixListener final : public Listener {
 public:
  // Binds + listens on `path`. A stale socket file (bind says "in use" but
  // nothing answers a connect) is unlinked and rebound; a *live* one is an
  // error. Returns nullptr with *error set on failure.
  static std::unique_ptr<UnixListener> open(const std::string& path, std::string* error);
  ~UnixListener() override;
  UnixListener(const UnixListener&) = delete;
  UnixListener& operator=(const UnixListener&) = delete;

  std::unique_ptr<FdTransport> accept(int poll_ms) override;

  bool ok() const override { return fd_ >= 0; }
  std::string endpoint() const override { return "unix:" + path_; }
  int fd() const override { return fd_; }
  const std::string& path() const { return path_; }

 private:
  UnixListener(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}

  int fd_;
  std::string path_;
  std::uint64_t accepted_ = 0;
};

class TcpListener final : public Listener {
 public:
  // Resolves `host` (numeric or named, IPv4 or IPv6; brackets around a
  // numeric IPv6 are accepted) and binds `port` (0 = ephemeral — read the
  // chosen one back with port()). Serve mode has no auth yet, so a host
  // that is not a loopback address is refused unless `allow_remote`.
  // Returns nullptr with *error set on failure.
  static std::unique_ptr<TcpListener> open(const std::string& host, int port,
                                           bool allow_remote, std::string* error);
  ~TcpListener() override;
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  std::unique_ptr<FdTransport> accept(int poll_ms) override;

  bool ok() const override { return fd_ >= 0; }
  std::string endpoint() const override;
  int fd() const override { return fd_; }
  int port() const { return port_; }  // actual bound port (after port 0)

 private:
  TcpListener(int fd, std::string host, int port)
      : fd_(fd), host_(std::move(host)), port_(port) {}

  int fd_;
  std::string host_;
  int port_;
  std::uint64_t accepted_ = 0;
};

// Client side: connects to a unix-domain socket; returns the fd, or -1 with
// *error set.
int unix_connect(const std::string& path, std::string* error);

// Client side: connects to host:port over TCP (tries every resolved
// address); returns the fd (TCP_NODELAY set), or -1 with *error set.
// `connect_timeout_ms > 0` bounds each address attempt (nonblocking connect
// + poll) — a load driver must not hang on a server whose listener died
// mid-SYN; 0 keeps the classic blocking connect.
int tcp_connect(const std::string& host, int port, std::string* error,
                int connect_timeout_ms = 0);

// Disables Nagle's algorithm on a TCP socket. Every TCP socket serve,
// client and route open or accept gets it: a pipelining peer writes many
// small frames, and with Nagle on the second one waits for the first one's
// ACK. Unix sockets have no such delay and do not need it.
void set_tcp_nodelay(int fd);

// Arms SO_RCVTIMEO / SO_SNDTIMEO on a connected socket. A read past the
// deadline fails with EAGAIN, which FdStreambuf surfaces as EOF — the
// "server stopped answering" signal a blocking client's retry loop wants.
// <= 0 leaves that direction unbounded.
void set_io_timeout(int fd, int recv_ms, int send_ms);

}  // namespace bisched::engine
