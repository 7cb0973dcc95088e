package transport

// Kill stops the site the way a crashed process stops: the listener and
// every connection close without a Bye, so its peers see broken links.
func (t *TCP) Kill() { t.shutdown(false) }
