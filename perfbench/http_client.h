// Loopback HTTP/1.1 client that keeps its connection open whenever the
// server allows it, so the benchmark measures persistent connections the
// moment the gateway supports them and reconnects per request until then.

#ifndef OPTIMUS_PERFBENCH_HTTP_CLIENT_H_
#define OPTIMUS_PERFBENCH_HTTP_CLIENT_H_

#include <cstdint>
#include <string>

namespace perfbench {

struct ClientResponse {
  int status = 0;  // 0 when the exchange failed at the transport.
  std::string body;
};

class HttpClient {
 public:
  explicit HttpClient(uint16_t port) : port_(port) {}
  ~HttpClient() { Close(); }

  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  ClientResponse Send(const std::string& method, const std::string& target,
                      const std::string& body = "");

  uint16_t port() const { return port_; }

 private:
  bool Connect();
  void Close();
  // One request/response on the open socket; false on a transport error.
  bool Exchange(const std::string& request, ClientResponse* response, bool* keep_open);

  uint16_t port_;
  int fd_ = -1;
};

}  // namespace perfbench

#endif  // OPTIMUS_PERFBENCH_HTTP_CLIENT_H_
