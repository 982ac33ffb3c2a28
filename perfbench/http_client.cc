#include "perfbench/http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>

namespace perfbench {

namespace {

std::string Lower(std::string text) {
  std::transform(text.begin(), text.end(), text.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return text;
}

}  // namespace

bool HttpClient::Connect() {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    return false;
  }
  const int enable = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port_);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Close();
    return false;
  }
  return true;
}

void HttpClient::Close() {
  if (fd_ >= 0) {
    // Abortive close: the connection's state goes at once instead of waiting
    // out TIME_WAIT, so tens of thousands of connections per run do not pile
    // up in the kernel and slow the runs that follow.
    const linger abort{1, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &abort, sizeof(abort));
    ::close(fd_);
    fd_ = -1;
  }
}

ClientResponse HttpClient::Send(const std::string& method, const std::string& target,
                                const std::string& body) {
  const std::string request = method + " " + target +
                              " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: " +
                              std::to_string(body.size()) +
                              "\r\nConnection: keep-alive\r\n\r\n" + body;
  // A reused connection may have been closed by the server since the last
  // response; that shows as a transport error before any byte of the
  // response, and the request is sent once more on a fresh connection.
  for (int attempt = 0; attempt < 2; ++attempt) {
    const bool reused = fd_ >= 0;
    if (!reused && !Connect()) {
      return {};
    }
    ClientResponse response;
    bool keep_open = false;
    if (Exchange(request, &response, &keep_open)) {
      if (!keep_open) {
        Close();
      }
      return response;
    }
    Close();
    if (!reused) {
      break;
    }
  }
  return {};
}

bool HttpClient::Exchange(const std::string& request, ClientResponse* response,
                          bool* keep_open) {
  for (size_t sent = 0; sent < request.size();) {
    const ssize_t n = ::send(fd_, request.data() + sent, request.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  std::string buffer;
  size_t head_end = std::string::npos;
  size_t content_length = 0;
  char chunk[4096];
  while (true) {
    if (head_end == std::string::npos) {
      head_end = buffer.find("\r\n\r\n");
      if (head_end != std::string::npos) {
        const std::string head = Lower(buffer.substr(0, head_end));
        // Status line: "http/1.1 200 ok".
        const size_t space = head.find(' ');
        response->status = space == std::string::npos ? 0 : std::atoi(head.c_str() + space + 1);
        const size_t length = head.find("\r\ncontent-length:");
        if (length != std::string::npos) {
          content_length = std::strtoul(head.c_str() + length + 17, nullptr, 10);
        }
        *keep_open = head.find("\r\nconnection: close") == std::string::npos;
      }
    }
    if (head_end != std::string::npos && buffer.size() >= head_end + 4 + content_length) {
      response->body = buffer.substr(head_end + 4, content_length);
      return true;
    }
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      // Only a connection that died before answering is worth a resend.
      if (buffer.empty()) {
        return false;
      }
      response->status = 0;
      *keep_open = false;
      return true;
    }
    buffer.append(chunk, static_cast<size_t>(n));
  }
}

}  // namespace perfbench
