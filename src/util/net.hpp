// Socket layer shared by every transport: the run_set worker backends, the
// streaming sim_server and its client (frames on top: core/run_protocol).
// Addresses are numeric IPv4 or AF_UNIX paths; failures throw
// sca::util::error, and every descriptor comes back owned by a unique_fd, so
// an exception between two connects cannot leak the first.
#ifndef SCA_UTIL_NET_HPP
#define SCA_UTIL_NET_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

namespace sca::net {

/// Move-only owner of a file descriptor; closes it on destruction.
class unique_fd {
public:
    unique_fd() = default;
    explicit unique_fd(int fd) noexcept : fd_(fd) {}
    ~unique_fd() { reset(); }

    unique_fd(unique_fd&& other) noexcept : fd_(other.release()) {}
    unique_fd& operator=(unique_fd&& other) noexcept {
        if (this != &other) reset(other.release());
        return *this;
    }

    [[nodiscard]] int get() const noexcept { return fd_; }
    explicit operator bool() const noexcept { return fd_ >= 0; }
    /// Give up ownership without closing.
    int release() noexcept { return std::exchange(fd_, -1); }
    /// Close the owned descriptor (if any) and take `fd` instead.
    void reset(int fd = -1) noexcept;

private:
    int fd_ = -1;
};

/// Listening TCP socket on 127.0.0.1.  `port` 0 picks an ephemeral port; the
/// bound port is written back.
[[nodiscard]] unique_fd listen_tcp(std::uint16_t& port);

/// Listening AF_UNIX stream socket at `path` (a stale socket file left by an
/// earlier run is unlinked first).
[[nodiscard]] unique_fd listen_unix(const std::string& path);

/// Connect to "ip:port" (numeric IPv4) with TCP_NODELAY, or to an AF_UNIX path.
[[nodiscard]] unique_fd connect_tcp(const std::string& endpoint);
[[nodiscard]] unique_fd connect_unix(const std::string& path);

/// Accept one connection; TCP connections get TCP_NODELAY.  Returns an empty
/// unique_fd when a non-blocking listener has nothing pending; retries EINTR.
[[nodiscard]] unique_fd accept_client(int listen_fd);

/// Connected AF_UNIX stream pair (parent end, child end).
[[nodiscard]] std::pair<unique_fd, unique_fd> stream_pair();

void set_nonblocking(int fd);

/// Write all `n` bytes to a blocking fd, retrying short writes.  Sockets are
/// written with MSG_NOSIGNAL and plain files with write(), so a dead peer
/// returns false (EPIPE/ECONNRESET) instead of raising SIGPIPE; any other
/// error throws.
bool write_all(int fd, const std::uint8_t* data, std::size_t n);

}  // namespace sca::net

#endif  // SCA_UTIL_NET_HPP
