print((
