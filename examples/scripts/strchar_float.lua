-- strchar takes an int; the host VMs reject a float argument.
print(strchar(65.5))
