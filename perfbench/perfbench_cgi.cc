// The churn_write workload's CGI program: fork/exec'd once per cache miss.
// Prints a small body derived only from the query string, so swala_perfbench
// can check every response (workloads.cc, echo_body).
#include <cstdio>
#include <cstdlib>

int main() {
  const char* query = std::getenv("QUERY_STRING");
  if (query == nullptr) query = "";
  std::printf("Content-Type: text/plain\n\n");
  for (int i = 0; i < 8; ++i) std::printf("perfbench-cgi %s\n", query);
  return 0;
}
