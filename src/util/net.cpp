#include "util/net.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "util/report.hpp"

namespace sca::net {

void unique_fd::reset(int fd) noexcept {
    if (fd_ >= 0) ::close(fd_);
    fd_ = fd;
}

namespace {

[[noreturn]] void fail(const std::string& what, int err) {
    util::report_fatal("net", what + ": " + std::strerror(err));
}

void set_nodelay(int fd) {
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

sockaddr_in ipv4_address(const std::string& host, std::uint16_t port) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    util::require(::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1, "net",
                  "'" + host + "' is not a numeric IPv4 address");
    return addr;
}

sockaddr_un unix_address(const std::string& path) {
    util::require(path.size() < sizeof(sockaddr_un{}.sun_path), "net",
                  "AF_UNIX path '" + path + "' is too long");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    return addr;
}

unique_fd stream_socket(int family) {
    unique_fd fd(::socket(family, SOCK_STREAM, 0));
    if (!fd) fail("socket failed", errno);
    return fd;
}

template <class Addr>
unique_fd bind_listen(int family, const Addr& addr, const std::string& name) {
    unique_fd fd = stream_socket(family);
    const int one = 1;
    if (family == AF_INET) ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
        ::listen(fd.get(), 128) != 0) {
        fail("cannot listen on " + name, errno);
    }
    return fd;
}

template <class Addr>
unique_fd connect_to(int family, const Addr& addr, const std::string& name) {
    unique_fd fd = stream_socket(family);
    if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
        fail("cannot connect to " + name, errno);
    }
    if (family == AF_INET) set_nodelay(fd.get());
    return fd;
}

}  // namespace

unique_fd listen_tcp(std::uint16_t& port) {
    sockaddr_in addr = ipv4_address("127.0.0.1", port);
    unique_fd fd = bind_listen(AF_INET, addr, "127.0.0.1:" + std::to_string(port));
    socklen_t len = sizeof addr;
    util::require(::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&addr), &len) == 0,
                  "net", "getsockname failed");
    port = ntohs(addr.sin_port);
    return fd;
}

unique_fd listen_unix(const std::string& path) {
    const sockaddr_un addr = unix_address(path);
    ::unlink(path.c_str());  // stale socket from a previous run
    return bind_listen(AF_UNIX, addr, "AF_UNIX path '" + path + "'");
}

unique_fd connect_tcp(const std::string& endpoint) {
    const std::size_t colon = endpoint.rfind(':');
    util::require(colon != std::string::npos, "net",
                  "endpoint '" + endpoint + "' is not of the form ip:port");
    const int port = std::atoi(endpoint.c_str() + colon + 1);
    util::require(port > 0 && port < 65536, "net",
                  "endpoint '" + endpoint + "' has an invalid port");
    return connect_to(AF_INET,
                      ipv4_address(endpoint.substr(0, colon), static_cast<std::uint16_t>(port)),
                      endpoint);
}

unique_fd connect_unix(const std::string& path) {
    return connect_to(AF_UNIX, unix_address(path), "AF_UNIX path '" + path + "'");
}

unique_fd accept_client(int listen_fd) {
    for (;;) {
        sockaddr_storage peer{};
        socklen_t len = sizeof peer;
        unique_fd fd(::accept(listen_fd, reinterpret_cast<sockaddr*>(&peer), &len));
        if (fd) {
            if (peer.ss_family == AF_INET) set_nodelay(fd.get());
            return fd;
        }
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return fd;
        fail("accept failed", errno);
    }
}

std::pair<unique_fd, unique_fd> stream_pair() {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) fail("socketpair failed", errno);
    return {unique_fd(sv[0]), unique_fd(sv[1])};
}

void set_nonblocking(int fd) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
        fail("fcntl failed", errno);
    }
}

bool write_all(int fd, const std::uint8_t* data, std::size_t n) {
    std::size_t off = 0;
    while (off < n) {
        ssize_t w = ::send(fd, data + off, n - off, MSG_NOSIGNAL);
        if (w < 0 && errno == ENOTSOCK) w = ::write(fd, data + off, n - off);
        if (w < 0) {
            if (errno == EINTR) continue;
            if (errno == EPIPE || errno == ECONNRESET) return false;
            fail("write failed", errno);
        }
        off += static_cast<std::size_t>(w);
    }
    return true;
}

}  // namespace sca::net
