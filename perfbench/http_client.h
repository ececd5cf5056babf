// Blocking keep-alive HTTP/1.1 client over loopback, one per load thread.

#ifndef PERFBENCH_HTTP_CLIENT_H_
#define PERFBENCH_HTTP_CLIENT_H_

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <strings.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <string>

namespace perfbench {

struct HttpReply {
  int status = -1;  // -1: the connection failed
  std::string body;
};

class HttpClient {
 public:
  explicit HttpClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
      return;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
      return;
    }
    int enable = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
    // A wedged server must not hang the benchmark past its time limit.
    timeval timeout{30, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  }
  ~HttpClient() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  bool connected() const { return fd_ >= 0; }

  HttpReply Post(const std::string& target, const std::string& body) {
    std::string wire = "POST " + target +
                       " HTTP/1.1\r\nhost: perfbench\r\ncontent-length: " +
                       std::to_string(body.size()) + "\r\n\r\n" + body;
    return RoundTrip(wire);
  }
  HttpReply Get(const std::string& target) {
    return RoundTrip("GET " + target + " HTTP/1.1\r\nhost: perfbench\r\n\r\n");
  }

 private:
  HttpReply RoundTrip(const std::string& wire) {
    HttpReply reply;
    if (fd_ < 0 || !SendAll(wire)) {
      return reply;
    }
    while (true) {
      const size_t end = inbuf_.find("\r\n\r\n");
      if (end != std::string::npos) {
        size_t body_len = 0;
        const size_t cl = FindHeader(end, "content-length:");
        if (cl != std::string::npos) {
          body_len = std::strtoul(inbuf_.c_str() + cl + 15, nullptr, 10);
        }
        if (inbuf_.size() >= end + 4 + body_len) {
          const size_t space = inbuf_.find(' ');
          reply.status = space < end ? std::atoi(inbuf_.c_str() + space + 1)
                                     : -1;
          reply.body = inbuf_.substr(end + 4, body_len);
          inbuf_.erase(0, end + 4 + body_len);
          return reply;
        }
      }
      char buffer[65536];
      const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
      if (n <= 0) {
        ::close(fd_);
        fd_ = -1;
        reply.status = -1;
        return reply;
      }
      inbuf_.append(buffer, static_cast<size_t>(n));
    }
  }

  // Case-insensitive header search within the head [0, head_end).
  size_t FindHeader(size_t head_end, const char* lower_name) const {
    const size_t len = std::strlen(lower_name);
    for (size_t i = 0; i + len <= head_end; ++i) {
      if (::strncasecmp(inbuf_.c_str() + i, lower_name, len) == 0) {
        return i;
      }
    }
    return std::string::npos;
  }

  bool SendAll(const std::string& wire) {
    size_t sent = 0;
    while (sent < wire.size()) {
      const ssize_t n =
          ::send(fd_, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) {
        return false;
      }
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  int fd_ = -1;
  std::string inbuf_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HTTP_CLIENT_H_
