/**
 * @file
 * Connection implementations: pipes to a local child, a socket to a
 * remote listen worker.
 */
#include "support/connection.h"

#include <csignal>
#include <sstream>

#include <sys/socket.h>
#include <unistd.h>

namespace finesse {

namespace {

class SubprocessConnection final : public Connection
{
  public:
    SubprocessConnection(const std::vector<std::string> &cmd,
                         const std::vector<std::string> &env)
    {
        proc_.spawn(cmd, env);
    }

    int pollFd() const override { return proc_.stdoutFd(); }

    bool
    writeAll(const void *data, size_t n) override
    {
        return proc_.writeAll(data, n);
    }

    long
    readSome(void *buf, size_t n) override
    {
        return proc_.readSome(buf, n);
    }

    void closeWrite() override { proc_.closeStdin(); }

    bool
    terminate() override
    {
        if (!proc_.running())
            return false;
        proc_.kill(SIGKILL);
        return Subprocess::wasSignaled(proc_.wait());
    }

    void
    finish() override
    {
        if (!proc_.running())
            return;
        proc_.closeStdin();
        proc_.wait();
    }

    std::string
    describe() const override
    {
        std::ostringstream os;
        os << "pipe worker pid " << proc_.pid();
        return os.str();
    }

  private:
    Subprocess proc_;
};

class TcpConnection final : public Connection
{
  public:
    TcpConnection(int fd, HostPort peer) : fd_(fd), peer_(std::move(peer))
    {}

    ~TcpConnection() override { closeFd(); }
    TcpConnection(const TcpConnection &) = delete;
    TcpConnection &operator=(const TcpConnection &) = delete;

    int pollFd() const override { return fd_; }

    bool
    writeAll(const void *data, size_t n) override
    {
        return fd_ >= 0 && writeAllFd(fd_, data, n);
    }

    long
    readSome(void *buf, size_t n) override
    {
        return fd_ >= 0 ? readSomeFd(fd_, buf, n) : 0;
    }

    void
    closeWrite() override
    {
        if (fd_ >= 0)
            ::shutdown(fd_, SHUT_WR);
    }

    bool
    terminate() override
    {
        // No pid to signal on a remote host: closing the socket is
        // the whole kill. The remote sees EOF/EPIPE and re-listens;
        // its in-flight result has nowhere to land, so re-dispatching
        // the group elsewhere cannot double-merge.
        closeFd();
        return false;
    }

    void
    finish() override
    {
        closeWrite();
        // Drain until the peer's EOF so its final result write never
        // hits a reset socket; bound by the peer closing in response
        // to our half-close.
        char sink[4096];
        for (;;) {
            const long r = readSome(sink, sizeof sink);
            if (r == kReadAgainFd)
                continue;
            if (r <= 0)
                break;
        }
        closeFd();
    }

    std::string
    describe() const override
    {
        return "tcp worker " + peer_.describe();
    }

  private:
    void
    closeFd()
    {
        if (fd_ >= 0)
            ::close(fd_);
        fd_ = -1;
    }

    int fd_;
    HostPort peer_;
};

} // namespace

std::unique_ptr<Connection>
spawnSubprocessConnection(const std::vector<std::string> &cmd,
                          const std::vector<std::string> &env)
{
    return std::make_unique<SubprocessConnection>(cmd, env);
}

std::unique_ptr<Connection>
connectTcpWorker(const HostPort &to, int connectTimeoutMs,
                 std::string *err)
{
    const int fd = tcpConnect(to, connectTimeoutMs, err);
    if (fd < 0)
        return nullptr;
    return std::make_unique<TcpConnection>(fd, to);
}

} // namespace finesse
